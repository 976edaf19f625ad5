(* The [serve] workload: a [Bw_serve.Server] in this process on a
   private Unix socket, driven through [Bw_serve.Client] by two
   connections, each a closed loop.

   The request shapes are {analyze, predict at each budget, simulate,
   optimize} x eight registry programs at scale 1 x three machine sets.
   Set-up sends every shape once, so the timed passes start warm.  Each
   timed pass sends every shape once in a seeded order, with every
   fifth request marked [no_cache]: a fixed 20% share of recomputes,
   which puts the median among cache hits and p90/p99 among
   recomputes. *)

open Measure
module P = Bw_serve.Protocol
module Json = Bw_core.Json

let programs = [ "convolution"; "dmxpy"; "mm_jki"; "mm_blocked"; "fft"; "nas_sp"; "sweep3d"; "fig7" ]
let machine_sets = [ [ "origin2000" ]; [ "exemplar" ]; [ "origin-scaled"; "exemplar" ] ]
let connections = 2
let no_cache_every = 5

let shapes =
  let predict budget = { (P.default_request P.Predict) with P.budget } in
  let ops =
    [ P.default_request P.Analyze; predict `Analytic; predict `Reuse; predict `Exact;
      P.default_request P.Simulate; P.default_request P.Optimize ]
  in
  Array.of_list
    (List.concat_map
       (fun program ->
         List.concat_map
           (fun machines ->
             List.map (fun r -> { r with P.program = Some program; scale = 1; machines }) ops)
           machine_sets)
       programs)

let describe (r : P.request) =
  Printf.sprintf "%s %s on %s%s" (P.op_name r.op)
    (Option.value ~default:"?" r.program)
    (String.concat "," r.machines)
    (match r.op with P.Predict -> " at " ^ P.budget_name r.budget | _ -> "")

(* An answer counts only when it is a full-fidelity [ok]. *)
let result_of = function
  | Error e -> Error ("transport: " ^ e)
  | Ok j when P.response_degraded j -> Error "degraded answer"
  | Ok j -> (
    match P.response_result j with
    | Ok r -> Ok (j, r)
    | Error e ->
      Error (match P.response_error_code j with Some c -> c ^ ": " ^ e | None -> e))

(* The oracle: a reply must equal the answer recorded for its shape
   during warm-up, byte for byte. *)
let check_reply ~recorded r =
  if String.equal (Json.to_string r) recorded then Ok () else Error "reply differs from the warm-up answer"

(* Send [reqs], each connection taking the next request as soon as its
   previous one is answered.  Returns (ms, response) per request. *)
let drive ?(on_reply = ignore) clients (reqs : P.request array) =
  let n = Array.length reqs in
  let out = Array.make n (0.0, Error "not sent") in
  let next = Atomic.make 0 in
  let rec loop c =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let r, dt =
        time (fun () ->
            try Bw_serve.Client.request c reqs.(i) with e -> Error (Printexc.to_string e))
      in
      out.(i) <- (dt *. 1000.0, r);
      on_reply ();
      loop c
    end
  in
  Array.iter Thread.join (Array.map (Thread.create loop) clients);
  out

type live = {
  server : Bw_serve.Server.t;
  clients : Bw_serve.Client.t array;
  answers : (Json.t * Json.t) array;  (** warm-up (response, result) per shape *)
  recorded : string array;
}

let stop l =
  Array.iter Bw_serve.Client.close l.clients;
  Bw_serve.Server.stop l.server

let start ~sock () =
  let server = Bw_serve.Server.start (Bw_serve.Server.default_config (Bw_serve.Server.Unix_sock sock)) in
  let clients =
    Array.init connections (fun _ -> Bw_serve.Client.connect ~timeout_s:60.0 (Bw_serve.Server.addr server))
  in
  let answers =
    Array.mapi
      (fun k (_, resp) ->
        match result_of resp with
        | Ok a -> a
        | Error e -> failwith (Printf.sprintf "serve warm-up %s: %s" (describe shapes.(k)) e))
      (drive clients shapes)
  in
  { server; clients; answers; recorded = Array.map (fun (_, r) -> Json.to_string r) answers }

(* The server's /metrics exposition as (name, value) pairs. *)
let scrape addr =
  match Bw_serve.Client.fetch_metrics addr with
  | Error e -> failwith ("metrics scrape: " ^ e)
  | Ok body ->
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; v ] -> Option.map (fun v -> (name, v)) (float_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' body)

(* The first number in a JSON value, changed. *)
let rec tamper = function
  | Json.Float f -> Some (Json.Float (f +. 1.0))
  | Json.Int i -> Some (Json.Int (i + 1))
  | Json.List vs -> Option.map (fun vs -> Json.List vs) (tamper_first tamper vs)
  | Json.Obj kvs ->
    Option.map (fun kvs -> Json.Obj kvs)
      (tamper_first (fun (k, v) -> Option.map (fun v -> (k, v)) (tamper v)) kvs)
  | Json.Null | Json.Bool _ | Json.String _ -> None

and tamper_first : 'a. ('a -> 'a option) -> 'a list -> 'a list option =
 fun f -> function
  | [] -> None
  | x :: rest -> (
    match f x with Some x' -> Some (x' :: rest) | None -> Option.map (fun r -> x :: r) (tamper_first f rest))

(* The capture / replay probe of the traced run: every program of the
   request set, captured once and replayed on the Origin2000 and the
   Exemplar models, serially (each replay checked against a direct
   [Run.simulate]) and fanned out ([Run.replay_many]), timed from
   outside after the passes.  The traces are the ones a simulate
   request's recompute makes.  [ok] turns false on a mismatch. *)
let capture_replay_probe ~ok =
  let machines = [ Bw_machine.Machine.origin2000; Bw_machine.Machine.exemplar ] in
  let records = ref 0.0 and bytes = ref 0.0 and mem = ref 0.0 in
  let capture_s = ref 0.0 and replay_s = ref 0.0 and fanout_s = ref 0.0 in
  List.iter
    (fun name ->
      match Bw_workloads.Registry.find name with
      | None -> failwith ("unknown registry workload " ^ name)
      | Some e ->
        let program = e.Bw_workloads.Registry.build ~scale:1 in
        let c, dt = time (fun () -> Bw_exec.Run.capture program) in
        capture_s := !capture_s +. dt;
        let store = c.Bw_exec.Run.store in
        records := !records +. float_of_int (Bw_machine.Trace_store.records store);
        bytes := !bytes +. float_of_int (Bw_machine.Trace_store.encoded_bytes store);
        List.iter
          (fun machine ->
            let r, dt = time (fun () -> Bw_exec.Run.replay ~machine c) in
            replay_s := !replay_s +. dt;
            mem := !mem +. float_of_int (Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache);
            if not (Bw_exec.Run.equal_result r (Bw_exec.Run.simulate ~machine program)) then begin
              ok := false;
              fail "serve probe %s on %s: replay differs from direct simulation" name
                machine.Bw_machine.Machine.name
            end)
          machines;
        let _, dt = time (fun () -> Bw_exec.Run.replay_many ~machines c) in
        fanout_s := !fanout_s +. dt)
    programs;
  let n = float_of_int (List.length programs) and m = float_of_int (List.length machines) in
  [ ("exec.capture_ms", !capture_s *. 1000.0 /. n);
    ("exec.capture_mrefs_per_s", !records /. !capture_s /. 1e6);
    ("machine.replay_ms", !replay_s *. 1000.0 /. (n *. m));
    ("machine.replay_mrefs_per_s", !records *. m /. !replay_s /. 1e6);
    ("exec.fanout_gain", !replay_s /. !fanout_s);
    ("machine.trace_bytes_per_ref", !bytes /. !records);
    ("machine.mem_mb", !mem /. 1e6) ]

let run ~seed ~seconds ~trace ~out_dir =
  let sock = Filename.concat out_dir "serve.sock" in
  (* One set-up before the timed window and six after it: a stopped
     server leaves 10-15 MB resident, so set-ups repeated before the
     window would move peak_rss_mb by up to 40% between runs. *)
  let live, first_setup_s = timed_setup (start ~sock) in
  let addr = Bw_serve.Server.addr live.server in
  let n = Array.length shapes in
  let failures = Failures.create () in
  let lat = ref [] and hit = ref [] and miss = ref [] in
  let depth_max = ref 0.0 in
  let depth = Bw_obs.Metrics.gauge "serve.queue.depth" in
  let m0 = if trace then scrape addr else [] in
  let pass_out = ref [||] and pass_reqs = ref [||] and pass_traced = ref false in
  let pass_scale = ref 1.0 in
  let run_pass ~index ~traced =
    let order = shuffled ~seed ~pass:index n in
    let reqs =
      Array.mapi (fun pos k -> (k, { shapes.(k) with P.no_cache = pos mod no_cache_every = 0 })) order
    in
    let on_reply () = depth_max := Float.max !depth_max (Bw_obs.Metrics.gauge_value depth) in
    pass_reqs := reqs;
    pass_traced := traced;
    let out, dt =
      time (fun () ->
          drive ?on_reply:(if traced then Some on_reply else None) live.clients (Array.map snd reqs))
    in
    (* Requests take well under a millisecond: the host-speed samples
       around the pass scale all of it. *)
    pass_scale := Host.bracket ();
    pass_out := out;
    (n, dt, dt *. !pass_scale)
  in
  let after_pass ~index =
    let traced = !pass_traced in
    Array.iteri
      (fun i (ms, resp) ->
        let k, (req : P.request) = !pass_reqs.(i) in
        if not traced then lat := (ms *. !pass_scale) :: !lat;
        match Result.bind (result_of resp) (fun (_, r) -> check_reply ~recorded:live.recorded.(k) r) with
        | Error e -> Failures.add failures (index, i) (describe req ^ ": " ^ e)
        | Ok () ->
          if not traced then
            if req.no_cache then miss := ms :: !miss
            else if P.response_cached (Result.get_ok resp) then hit := ms :: !hit)
      !pass_out
  in
  let passes = run_passes ~seconds ~trace ~run_pass ~after_pass in
  let rss_mb = peak_rss_mb () in
  let spans = Bw_obs.Trace.collect () in
  let attempted = n * List.length passes in
  Failures.report failures (fun (index, _) -> Printf.sprintf "serve pass %d" index);
  let checks =
    match tamper (snd live.answers.(0)) with
    | None -> Error "self-check: nothing to tamper with"
    | Some bad -> (
      match check_reply ~recorded:live.recorded.(0) bad with
      | Ok () -> Error "serve oracle accepted a tampered reply"
      | Error _ -> Ok ())
  in
  Result.iter_error (fail "%s") checks;
  (* Exact-simulated traffic after / before of every optimize answer. *)
  let traffic =
    List.filter_map
      (fun (k, (_, r)) ->
        if shapes.(k).P.op <> P.Optimize then None
        else
          match (Json.member "memory_mb_after" r, Json.member "memory_mb_before" r) with
          | Some a, Some b -> (
            match (Json.to_float a, Json.to_float b) with Some a, Some b -> Some (a /. b) | _ -> None)
          | _ -> None)
      (List.mapi (fun k a -> (k, a)) (Array.to_list live.answers))
  in
  let probe_ok = ref true in
  let layers () =
    let m1 = scrape addr in
    let delta name =
      Option.value ~default:0.0 (List.assoc_opt name m1) -. Option.value ~default:0.0 (List.assoc_opt name m0)
    in
    let compute_s =
      sum
        (Array.to_list
           (Array.mapi
              (fun k (req : P.request) ->
                let machines = Result.get_ok (P.resolve_machines req) in
                let program = Result.get_ok (P.load_program req) in
                let r, dt = time (fun () -> Bw_serve.Handle.compute req ~machines (Some program)) in
                if Result.is_error (check_reply ~recorded:live.recorded.(k) r) then begin
                  probe_ok := false;
                  fail "serve probe %s: in-process answer differs from the server's" (describe req)
                end;
                dt)
              shapes))
    in
    let reps = 50 in
    let per_call_us f xs =
      let (), dt = time (fun () -> for _ = 1 to reps do Array.iter (fun x -> ignore (f x)) xs done) in
      dt *. 1e6 /. float_of_int (reps * Array.length xs)
    in
    let lines = Array.map (fun r -> Json.to_string (P.json_of_request r)) shapes in
    [ ("serve.hit_ms_p50", percentile 0.5 !hit);
      ("serve.hit_ms_p99", percentile 0.99 !hit);
      ("serve.miss_ms_p50", percentile 0.5 !miss);
      ("serve.miss_ms_p99", percentile 0.99 !miss);
      ("serve.compute_ms", compute_s *. 1000.0 /. float_of_int n);
      ("serve.decode_us", per_call_us P.request_of_string lines);
      ("serve.encode_us", per_call_us Json.to_string (Array.map fst live.answers));
      ("serve.cache_hit_frac", ratio (delta "serve_cache_hit") (delta "serve_requests"));
      ("serve.batch_grouped_frac", ratio (delta "serve_batch_grouped") (delta "serve_batch_requests"));
      ("serve.queue_depth_max", !depth_max);
      ( "serve.rejected",
        delta "serve_queue_shed" +. delta "serve_queue_degraded" +. delta "serve_deadline_expired" ) ]
    @ capture_replay_probe ~ok:probe_ok
    @ trace_layers ~passes ~spans
  in
  let layers = if trace then layers () else [] in
  stop live;
  let setup_s =
    median
      (first_setup_s
      :: List.init 6 (fun _ ->
             let l, dt = timed_setup (start ~sock) in
             stop l;
             dt))
  in
  let failed = Failures.count failures in
  let e2e =
    end_to_end ~setup_s ~rss_mb ~passes ~lat_ms:!lat ~attempted ~failed @ [ ("traffic_ratio", geomean traffic) ]
  in
  { attempted; failed; checks_ok = Result.is_ok checks && !probe_ok; e2e; layers; spans }
