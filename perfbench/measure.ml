(* Clocks, statistics, set-up repetition, the pass loop and span
   accounting shared by the workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolation percentile of a sample, [q] in [0, 1]. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((a.(i + 1) -. a.(i)) *. (pos -. float_of_int i))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

(* Peak resident set of this process (server included when in-process). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      float_of_int (go ()) *. 1024.0 /. 1e6)

(* A failed op or check: one line on stderr, counted by the caller. *)
let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Failed ops, keyed by op, with the first reason each one failed. *)
module Failures = struct
  type 'k t = ('k, string) Hashtbl.t

  let create () : 'k t = Hashtbl.create 16
  let add t k reason = if not (Hashtbl.mem t k) then Hashtbl.replace t k reason
  let count = Hashtbl.length

  let report t describe =
    Hashtbl.fold (fun k r acc -> (k, r) :: acc) t []
    |> List.sort compare
    |> List.iter (fun (k, r) -> fail "%s: %s" (describe k) r)
end

(* Op [k] failed in every pass: its answer failed a check that ran once
   per program. *)
let fail_in_every_pass failures ~passes k reason =
  List.iteri (fun index _ -> Failures.add failures (index, k) reason) passes

(* What a workload run returns to [Perfbench.main]. *)
type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (** run-level checks: the oracle self-tests *)
  e2e : (string * float) list;
  layers : (string * float) list;  (** trace mode only *)
  spans : Bw_obs.Trace.span list;
}

(* Host speed.  The host is shared, and its speed drifts: it switches
   between a fast and a slow state (about 1.35x apart for the kernel
   below, up to 1.9x for a compile op) within seconds to minutes, with
   CPU time equal to wall time (no steal).  Over ten minutes the median
   compile op time of 20-second windows spread by 0.12-0.18 (IQR /
   median), and two sets of runs of identical code some minutes apart
   had set-up medians 28% apart.  So every timed op (every serve pass,
   every set-up) is bracketed, outside the timed region, by runs of a
   benchmark-owned reference kernel, and its time is reported at
   reference speed: measured time x [reference_ms] / the kernel's time
   around it.  The kernel builds and folds small [Map]s -- allocation,
   comparisons and pointer chasing, like the workloads' own code -- and
   calls no library code, so a change to the library moves the reported
   times by its full amount.  A 20000-key [Map] with collections inside
   it, lookups in a fixed [Map], a 16 or 64 MB stream, a random pointer
   chase over 32 MB and an ALU loop all tracked the drift worse. *)
module Host = struct
  module M = Map.Make (Int)

  (* About the kernel's median time (ms) on the 2-vCPU host the bounds
     were set on. *)
  let reference_ms = 5.0

  (* One kernel run (ms): ten rounds, each building and folding a
     2000-key map.  A round allocates about 130k words, less than the
     minor heap, and starts on an emptied one, so no collection runs
     inside the timed part: the kernel's time does not depend on the
     size of the workload's heap or on other domains. *)
  let kernel_ms () =
    let total = ref 0.0 in
    for round = 1 to 10 do
      Gc.minor ();
      let t0 = now () in
      let rng = ref round and m = ref M.empty in
      for i = 1 to 2000 do
        rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
        m := M.add !rng i !m
      done;
      ignore (Sys.opaque_identity (M.fold (fun k v a -> a + (k lxor v)) !m 0));
      total := !total +. (now () -. t0)
    done;
    !total *. 1000.0

  (* Every factor measured, and the GC work the kernel did, so per-op
     GC counts can leave it out. *)
  let factors = ref []
  let minor_words = ref 0.0
  let major_collections = ref 0

  (* The factor that takes a time measured just now to reference speed:
     the median of three kernel runs (one run alone is noisy by about
     6%). *)
  let factor () =
    let g0 = Gc.quick_stat () in
    let ms = median (List.init 3 (fun _ -> kernel_ms ())) in
    let g1 = Gc.quick_stat () in
    minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major_collections := !major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
    let f = reference_ms /. ms in
    factors := f :: !factors;
    f

  (* The factor for a time measured since the last sample: the mean of
     that sample and a new one.  The host switches between speeds
     within seconds, and the two samples bracket the time. *)
  let bracket () =
    let before = match !factors with f :: _ -> Some f | [] -> None in
    let after = factor () in
    match before with Some b -> (b +. after) /. 2.0 | None -> after
end

(* One set-up, timed at reference speed by host-speed samples taken
   just before and just after it ({!Host}). *)
let timed_setup setup =
  ignore (Host.factor ());
  let r, dt = time setup in
  (r, dt *. Host.bracket ())

(* Run [setup] [reps] times and report the median duration at
   reference speed.  Every result but the last is handed to [discard];
   the last is kept.  Some set-ups take milliseconds, so a single
   reading would move with GC state and host noise. *)
let repeated_setup ~reps ?(discard = ignore) setup =
  let rec go i times =
    let r, dt = timed_setup setup in
    if i + 1 = reps then (r, median (dt :: times))
    else begin
      discard r;
      go (i + 1) (dt :: times)
    end
  in
  go 0 []

(* Benchmark-owned spans.  [plain] calls straight through, so an
   untraced op runs exactly the code a user runs.  [recording] opens a
   {!Bw_obs.Trace} span (category = layer) and adds the duration to a
   per-name total. *)
type spanner = { span : 'a. cat:string -> string -> (unit -> 'a) -> 'a }

let plain = { span = (fun ~cat:_ _ f -> f ()) }

let recording totals =
  { span =
      (fun ~cat name f ->
        let t0 = now () in
        Fun.protect
          ~finally:(fun () ->
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals name) in
            Hashtbl.replace totals name (prev +. (now () -. t0)))
          (fun () -> Bw_obs.Trace.with_span ~cat ~attrs:[] (cat ^ "." ^ name) f)) }

(* A seeded permutation of [0 .. n-1], fresh for every pass. *)
let shuffled ~seed ~pass n =
  let order = Array.init n Fun.id in
  let rng = Random.State.make [| seed; pass |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

(* The timed window: whole passes over the workload's op set until
   [seconds] have been spent in timed ops, so every run times the same
   op mix.  In trace mode passes alternate untraced / traced, in equal
   numbers, and tracing is on only during traced passes.  [run_pass]
   returns the ops it ran, the seconds they took, and those seconds at
   reference speed ({!Host}); [after_pass] runs outside the timed region
   (verification). *)
type pass = {
  traced : bool;
  wall_s : float;
  ref_s : float;
  ops : int;
  minor_words : float;
  major_collections : int;
}

let run_passes ~seconds ~trace ~run_pass ~after_pass =
  let rec go i elapsed acc =
    let enough = elapsed >= seconds && ((not trace) || (i >= 2 && i mod 2 = 0)) in
    if enough then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      let g0 = Gc.quick_stat () and h0 = (!Host.minor_words, !Host.major_collections) in
      Bw_obs.Trace.set_enabled traced;
      let ops, wall_s, ref_s = run_pass ~index:i ~traced in
      Bw_obs.Trace.set_enabled false;
      let g1 = Gc.quick_stat () in
      after_pass ~index:i;
      (* Every pass starts from a collected heap, untimed. *)
      Gc.full_major ();
      let p =
        { traced;
          wall_s;
          ref_s;
          ops;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words -. (!Host.minor_words -. fst h0);
          major_collections =
            g1.Gc.major_collections - g0.Gc.major_collections - (!Host.major_collections - snd h0) }
      in
      go (i + 1) (elapsed +. wall_s) (p :: acc)
    end
  in
  go 0 0.0 []

(* One pass of a single-threaded closed loop: op [k] for every [k] in
   [0, n), in seeded order, each timed and taken to reference speed by
   the host-speed samples around it.  Untraced latencies at reference
   speed go to [lat].  Returns the results and the pass's [run_pass]
   triple. *)
let closed_loop_pass ~seed ~index ~traced ~lat n op =
  let wall = ref 0.0 and at_ref = ref 0.0 in
  let out =
    Array.map
      (fun k ->
        let r, dt = time (fun () -> op k) in
        let dt_ref = dt *. Host.bracket () in
        wall := !wall +. dt;
        at_ref := !at_ref +. dt_ref;
        if not traced then lat := (dt_ref *. 1000.0) :: !lat;
        (k, r))
      (shuffled ~seed ~pass:index n)
  in
  (out, (n, !wall, !at_ref))

let count_ops passes = List.fold_left (fun n p -> n + p.ops) 0 passes
let traced_ops passes = count_ops (List.filter (fun p -> p.traced) passes)

(* Throughput as measured, and at reference speed. *)
let ops_per_s passes =
  ratio (float_of_int (count_ops passes)) (sum (List.map (fun p -> p.wall_s) passes))

let ref_ops_per_s passes =
  ratio (float_of_int (count_ops passes)) (sum (List.map (fun p -> p.ref_s) passes))

(* End-to-end metrics every workload reports, times at reference speed
   ({!Host}): [setup_s] and [lat_ms] (the untraced op latencies) come in
   scaled already.  [rss_mb] is the peak resident set read right after
   the timed window, before verification. *)
let end_to_end ~setup_s ~rss_mb ~passes ~lat_ms ~attempted ~failed =
  let untraced = List.filter (fun p -> not p.traced) passes in
  [ ("setup_s", setup_s);
    ("peak_rss_mb", rss_mb);
    ("ok_frac", ratio (float_of_int (attempted - failed)) (float_of_int attempted));
    ("ops_per_s", ref_ops_per_s untraced);
    ("op_ms_p50", percentile 0.5 lat_ms);
    ("op_ms_p90", percentile 0.9 lat_ms);
    ("op_ms_p99", percentile 0.99 lat_ms) ]

(* Per-layer metrics every workload reports in trace mode: GC per op
   over the untraced passes, the traced-minus-untraced throughput, and
   the run's median host-speed factor.  Like every per-layer time they
   are as measured, not at reference speed. *)
let gc_and_overhead passes =
  let untraced = List.filter (fun p -> not p.traced) passes
  and traced = List.filter (fun p -> p.traced) passes in
  let ops = float_of_int (count_ops untraced) in
  let plain = ops_per_s untraced and traced_rate = ops_per_s traced in
  [ ("gc.minor_mwords_per_op",
     ratio (sum (List.map (fun p -> p.minor_words) untraced)) ops /. 1e6);
    ("gc.major_per_op",
     ratio
       (float_of_int (List.fold_left (fun n p -> n + p.major_collections) 0 untraced))
       ops);
    ("trace.overhead_ops_per_s", traced_rate -. plain);
    ("trace.overhead_frac", 1.0 -. ratio traced_rate plain);
    ("host.factor", median !Host.factors) ]

(* Self time per span category (= layer): a span's duration minus that
   of its direct children on the same domain.  Domains nest spans
   properly, so a stack over start-sorted spans finds each parent. *)
let self_ms_by_cat (spans : Bw_obs.Trace.span list) =
  let totals = Hashtbl.create 16 in
  let add cat v =
    Hashtbl.replace totals cat (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals cat))
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (s : Bw_obs.Trace.span) ->
      Hashtbl.replace by_tid s.tid (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.iter
    (fun _ ss ->
      let ss =
        List.sort
          (fun (a : Bw_obs.Trace.span) (b : Bw_obs.Trace.span) ->
            compare (a.start_us, a.depth) (b.start_us, b.depth))
          ss
      in
      let stack = ref [] in
      List.iter
        (fun (s : Bw_obs.Trace.span) ->
          let rec pop () =
            match !stack with
            | (p : Bw_obs.Trace.span) :: rest when p.start_us +. p.dur_us <= s.start_us || p.depth >= s.depth ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
           | (p : Bw_obs.Trace.span) :: _ -> add p.cat (-.s.dur_us /. 1000.0)
           | [] -> ());
          add s.cat (s.dur_us /. 1000.0);
          stack := s :: !stack)
        ss)
    by_tid;
  Hashtbl.fold (fun cat v acc -> (cat, v) :: acc) totals []

(* The per-layer metrics all workloads share: GC, tracing overhead, and
   each layer's self time per traced op. *)
let trace_layers ~passes ~spans =
  gc_and_overhead passes
  @ List.map
      (fun (cat, ms) -> ("self_ms." ^ cat, ratio ms (float_of_int (traced_ops passes))))
      (self_ms_by_cat spans)

(* Library counters ({!Bw_obs.Metrics}) by name. *)
let counter name = Bw_obs.Metrics.counter_value (Bw_obs.Metrics.counter name)

(* The pool the benchmark verifies on: outside the timed region, so it
   may use every core. *)
let parallel_map f xs = Array.to_list (Bw_exec.Pool.map ~jobs:2 f (Array.of_list xs))
