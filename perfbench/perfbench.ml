(* The repository benchmark.

     perfbench --workload compile|serve --seed N --seconds S --trace 0|1

   Run from the root of a checkout (perfbench/run.sh builds and starts
   it).  The metric names and units come from BENCHMARK.json.  With
   --trace 0 the last stdout line is one JSON object holding every
   end-to-end metric; with --trace 1 it holds every per-layer metric,
   and the spans and metrics are also written under .bench_build/perfbench/.
   The line before the result is the environment snapshot.  Failed ops
   and checks are reported one line each on stderr. *)

module Json = Bw_core.Json

let out_dir = Filename.concat ".bench_build" "perfbench"

let usage () =
  prerr_endline
    "usage: perfbench --workload compile|serve --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "compile"; "serve" ]) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

(* (name, unit) of the metrics BENCHMARK.json declares under [key]. *)
let declared key =
  let doc =
    try Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    with Sys_error e | Json.Parse_error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Option.bind (Json.member key doc) Json.to_list with
  | None -> failwith ("BENCHMARK.json has no " ^ key ^ " list")
  | Some ms ->
    List.map
      (fun m ->
        match (Option.bind (Json.member "name" m) Json.to_str, Option.bind (Json.member "unit" m) Json.to_str) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
      ms

(* The commit of the checkout, read from .git in the working directory
   only; "unknown" outside a git checkout. *)
let git_commit () =
  let read f = try Some (String.trim (In_channel.with_open_bin f In_channel.input_all)) with Sys_error _ -> None in
  match read (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with
    | Some c -> c
    | None ->
      let packed = Option.value ~default:"" (read (Filename.concat ".git" "packed-refs")) in
      List.find_map
        (fun line ->
          match String.split_on_char ' ' line with [ sha; name ] when name = r -> Some sha | _ -> None)
        (String.split_on_char '\n' packed)
      |> Option.value ~default:"unknown")
  | Some sha -> sha

let env ~workload =
  Json.Obj
    [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("ocamlrunparam", Json.String (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
      ("commit", Json.String (git_commit ()));
      ("server_in_process", Json.Bool (workload = "serve")) ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* Every declared metric, in declared order.  End-to-end metrics must
   all be measured; a per-layer metric of a layer the workload never
   calls reads 0. *)
let select ~required decl measured =
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n decl) then failwith ("undeclared metric " ^ n))
    measured;
  List.map
    (fun (n, u) ->
      let v =
        match List.assoc_opt n measured with
        | Some v -> v
        | None when required -> failwith ("metric not measured: " ^ n)
        | None -> 0.0
      in
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %f" n v);
      (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
    decl

let main () =
  let workload, seed, seconds, trace = parse_args () in
  let decl = declared (if trace then "per_layer" else "end_to_end") in
  mkdir_p out_dir;
  let o =
    match workload with
    | "compile" -> Compile_wl.run ~seed ~seconds ~trace
    | _ -> Serve_wl.run ~seed ~seconds ~trace ~out_dir
  in
  let metrics =
    if trace then select ~required:false decl o.Measure.layers else select ~required:true decl o.e2e
  in
  let env = env ~workload in
  if trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc
          (Json.to_string
             (Json.Obj
                [ ("env", env);
                  ("metrics", Json.Obj metrics);
                  ("trace", Bw_core.Trace_export.json_of_spans o.spans) ])));
    prerr_endline ("perfbench: spans written to " ^ path)
  end;
  print_endline ("perfbench env " ^ Json.to_string env);
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (o.failed = 0 && o.checks_ok));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj metrics) ]))

let () =
  try main () with
  | Failure e | Sys_error e | Invalid_argument e ->
    prerr_endline ("perfbench: " ^ e);
    exit 1
  | e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
