(* The [compile] workload: the [bwc optimize --fuse-search] path,
   closed loop on one thread.

   Inputs are the operation-DAG family's named instances dag1x40 ..
   dag5x40 at scale 1, rendered to [.bw] text (dag6x40 warms up).  Five
   programs give each one a dozen or more samples per run, and keep
   p50, p90 and p99 inside one program's samples rather than between
   two.  One op parses and
   checks one text, runs the guarded pipeline with the annealed fusion
   search as its fuse stage, runs the layout pass and prints the
   result.  The seed draws the op order of every pass.

   The program set is fixed rather than drawn from the seed: instance
   costs span 160-610 ms and their traffic ratios 0.07-0.44, so any set
   small enough to verify in a run moves the median op time by about
   18% between seeds (see BENCHMARK.md). *)

open Measure

let machine = Bw_core.Experiments.origin_scaled
let instances = 5
let loops = 40

type input = { name : string; program : Bw_ir.Ast.program; text : string }

let instance seed =
  let program =
    Bw_workloads.Dag_family.generate ~seed ~loops ~n:(Bw_workloads.Dag_family.extent ~scale:1)
  in
  { name = Printf.sprintf "dag%dx%d" seed loops;
    program;
    text = Bw_ir.Pretty.program_to_string program }

let rollbacks events =
  List.length
    (List.filter
       (fun (e : Bw_transform.Guard.event) ->
         match e.Bw_transform.Guard.verdict with
         | Bw_transform.Guard.Rolled_back _ -> true
         | Bw_transform.Guard.Committed -> false)
       events)

(* One op; returns the printed program and the pipeline's rollbacks. *)
let compile (s : spanner) text =
  match s.span ~cat:"lang" "parse" (fun () -> Bw_lang.Parse.parse_program text) with
  | Error e -> Error ("parse: " ^ Bw_lang.Parse.error_to_string e)
  | Ok p -> (
    match s.span ~cat:"ir" "check" (fun () -> Bw_ir.Check.check p) with
    | Error _ -> Error "input fails Check"
    | Ok () ->
      let search = Bw_fusion.Search.stage (Bw_fusion.Search.default_config ~machine ()) in
      let fuse_search q = s.span ~cat:"fusion" "fuse_search" (fun () -> search q) in
      let p', _, events =
        s.span ~cat:"transform" "run_guarded" (fun () ->
            Bw_transform.Strategy.run_guarded ~machine ~fuse_search p)
      in
      let p'', _ = s.span ~cat:"transform" "layout" (fun () -> Bw_transform.Layout.run ~machine p') in
      Ok (s.span ~cat:"ir" "print" (fun () -> Bw_ir.Pretty.program_to_string p''), rollbacks events))

(* Set-up renders the inputs, then warms the compile path with one op on
   an instance outside the timed set.  Without the warm-up, set-up
   takes 2-3 ms and its time is bimodal between processes. *)
let setup () =
  let inputs = List.init instances (fun i -> instance (i + 1)) in
  ignore (compile plain (instance (instances + 1)).text);
  inputs

(* The oracle for one output text: it must re-parse, pass Check and
   the dependence lint, and behave like its input on both engines.
   Returns the exact-simulated traffic ratio output / input. *)
let verify input text =
  match Bw_lang.Parse.parse_program text with
  | Error e -> Error ("output does not parse: " ^ Bw_lang.Parse.error_to_string e)
  | Ok out -> (
    match Bw_ir.Check.check out with
    | Error _ -> Error "output fails Check"
    | Ok () ->
      if not (Bw_analysis.Preserve.lint_ok ~before:input ~after:out) then
        Error "output fails the dependence-preservation lint"
      else (
        match Bw_transform.Guard.validate_pair ~before:input ~after:out () with
        | Error e -> Error ("differential validation: " ^ e)
        | Ok () ->
          let bytes p =
            float_of_int
              (Bw_machine.Timing.memory_bytes (Bw_exec.Run.simulate ~machine p).Bw_exec.Run.cache)
          in
          Ok (bytes out /. bytes input)))

(* The oracle must reject a corrupted output.  A small family instance
   keeps this check cheap; the oracle code is the one used above. *)
let oracle_fires () =
  let input = Bw_workloads.Dag_family.generate ~seed:1 ~loops:6 ~n:64 in
  match compile plain (Bw_ir.Pretty.program_to_string input) with
  | Error e -> Error ("self-check input does not compile: " ^ e)
  | Ok (text, _) -> (
    match Result.map (fun _ -> ()) (verify input text) with
    | Error e -> Error ("self-check: clean output rejected: " ^ e)
    | Ok () -> (
      match Bw_transform.Guard.corrupt_program (Bw_lang.Parse.parse_program_exn text) with
      | None -> Error "self-check: nothing to corrupt"
      | Some bad -> (
        match verify input (Bw_ir.Pretty.program_to_string bad) with
        | Error _ -> Ok ()
        | Ok _ -> Error "compile oracle accepted a corrupted program")))

let run ~seed ~seconds ~trace =
  let inputs, setup_s = repeated_setup ~reps:9 setup in
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let first = Array.make n None in
  let failures = Failures.create () in
  let lat = ref [] and rolled_back = ref 0 in
  let totals = Hashtbl.create 8 in
  let pass_out = ref [||] in
  let c0 =
    List.map
      (fun k -> (k, counter k))
      [ "fusion.search.candidates"; "fusion.search.cache_hit"; "fusion.search.accept";
        "fusion.search.reject"; "evaluate.tier.analytic" ]
  in
  let run_pass ~index ~traced =
    let s = if traced then recording totals else plain in
    let out, r = closed_loop_pass ~seed ~index ~traced ~lat n (fun k -> compile s inputs.(k).text) in
    pass_out := out;
    r
  in
  let after_pass ~index =
    Array.iter
      (fun (k, r) ->
        match r with
        | Error e -> Failures.add failures (index, k) e
        | Ok (text, rb) -> (
          rolled_back := !rolled_back + rb;
          match first.(k) with
          | None -> first.(k) <- Some text
          | Some t when String.equal t text -> ()
          | Some _ -> Failures.add failures (index, k) "repeat printed different text"))
      !pass_out
  in
  let passes = run_passes ~seconds ~trace ~run_pass ~after_pass in
  let rss_mb = peak_rss_mb () in
  let deltas = List.map (fun (k, v) -> (k, float_of_int (counter k - v))) c0 in
  let spans = Bw_obs.Trace.collect () in
  let attempted = n * List.length passes in
  let verdicts =
    Array.of_list
      (parallel_map
         (fun k ->
           match first.(k) with
           | None -> Error "no successful op"
           | Some text -> verify inputs.(k).program text)
         (List.init n Fun.id))
  in
  Array.iteri (fun k v -> Result.iter_error (fail_in_every_pass failures ~passes k) v) verdicts;
  Failures.report failures (fun (index, k) -> Printf.sprintf "compile pass %d %s" index inputs.(k).name);
  let failed = Failures.count failures in
  let checks = oracle_fires () in
  Result.iter_error (fail "%s") checks;
  let e2e =
    end_to_end ~setup_s ~rss_mb ~passes ~lat_ms:!lat ~attempted ~failed
    @ [ ("traffic_ratio", geomean (List.filter_map Result.to_option (Array.to_list verdicts))) ]
  in
  let layers () =
    let per_op name =
      ratio (Option.value ~default:0.0 (Hashtbl.find_opt totals name)) (float_of_int (traced_ops passes))
      *. 1000.0
    in
    let delta k = List.assoc k deltas in
    let ops = float_of_int attempted in
    let analytic_us =
      let reps = 20 in
      let (), dt =
        time (fun () ->
            Array.iter
              (fun i ->
                for _ = 1 to reps do
                  ignore
                    (Bw_exec.Evaluate.of_program ~budget:Bw_exec.Evaluate.Microseconds ~machine
                       i.program)
                done)
              inputs)
      in
      dt *. 1e6 /. float_of_int (n * reps)
    in
    [ ("lang.parse_ms", per_op "parse");
      ("ir.check_ms", per_op "check");
      ("transform.pipeline_ms", per_op "run_guarded" -. per_op "fuse_search");
      ("transform.layout_ms", per_op "layout");
      ("transform.rollbacks", float_of_int !rolled_back);
      ("fusion.search_ms", per_op "fuse_search");
      ("fusion.candidates", delta "fusion.search.candidates" /. ops);
      ( "fusion.memo_hit_frac",
        ratio (delta "fusion.search.cache_hit")
          (delta "fusion.search.cache_hit" +. delta "fusion.search.candidates") );
      ( "fusion.accept_frac",
        ratio (delta "fusion.search.accept")
          (delta "fusion.search.accept" +. delta "fusion.search.reject") );
      ("evaluate.analytic_calls", delta "evaluate.tier.analytic" /. ops);
      ("evaluate.analytic_us", analytic_us) ]
    @ trace_layers ~passes ~spans
  in
  { attempted; failed; checks_ok = Result.is_ok checks; e2e;
    layers = (if trace then layers () else []); spans }
