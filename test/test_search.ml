open Bw_fusion

let check = Alcotest.check
let bool = Alcotest.bool

let machine = Bw_machine.Machine.origin2000

let cfg ?(engine = Search.Anneal) ?(seed = 1) () =
  Search.default_config ~engine ~machine ~seed ()

(* a cheap annealing config for property tests: tiny instances converge
   long before the default 2x1300 step budget *)
let quick_cfg ?(seed = 1) () =
  { (cfg ~seed ()) with Search.restarts = 1; Search.steps = 250 }

let plan_exn c p =
  match Search.plan c p with
  | Ok (plan, st) -> (plan, st)
  | Error e -> Alcotest.fail e

let small_dag ~seed ~loops =
  Bw_workloads.Dag_family.generate ~seed ~loops ~n:1024

(* --- Exact oracle --------------------------------------------------------- *)

(* On every instance small enough for the set-partition DP, annealing
   must land on the DP's optimum and greedy must stay within a bounded
   (and logged) factor of it. *)
let test_exact_oracle_agreement () =
  List.iter
    (fun (seed, loops) ->
      let p = small_dag ~seed ~loops in
      let _, exact = plan_exn (cfg ~engine:Search.Exact ()) p in
      let _, anneal = plan_exn (cfg ()) p in
      let _, greedy = plan_exn (cfg ~engine:Search.Greedy ()) p in
      check bool
        (Printf.sprintf "dag%dx%d: exact within limit" seed loops)
        true
        (exact.Search.nodes <= (cfg ()).Search.exact_limit);
      let matches =
        anneal.Search.objective <= exact.Search.objective *. 1.000001
      in
      if not matches then
        Alcotest.failf "dag%dx%d: anneal %.0f > exact optimum %.0f" seed
          loops anneal.Search.objective exact.Search.objective;
      let factor = greedy.Search.objective /. exact.Search.objective in
      Printf.printf "dag%dx%d: greedy/exact factor %.3f\n" seed loops factor;
      check bool
        (Printf.sprintf "dag%dx%d: greedy within 2x of optimum" seed loops)
        true (factor <= 2.0))
    [ (1, 6); (2, 6); (1, 8); (2, 8); (3, 8); (1, 10) ]

let test_exact_refuses_large () =
  let p = small_dag ~seed:1 ~loops:30 in
  match Search.plan (cfg ~engine:Search.Exact ()) p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "exact DP must refuse instances past exact_limit"

(* --- Greedy vs anneal separation ------------------------------------------- *)

(* The acceptance bar: annealing beats greedy by >= 10% predicted
   traffic on at least three benchmark instances. *)
let test_anneal_beats_greedy () =
  let machine = Bw_core.Experiments.origin_scaled in
  let wins =
    List.filter
      (fun (_, p) ->
        let c e = { (cfg ~engine:e ()) with Search.machine } in
        let _, greedy = plan_exn (c Search.Greedy) p in
        let _, anneal = plan_exn (c Search.Anneal) p in
        anneal.Search.traffic <= 0.9 *. greedy.Search.traffic)
      (Bw_workloads.Dag_family.instances ~scale:1)
  in
  check bool "anneal beats greedy by >= 10% on >= 3 instances" true
    (List.length wins >= 3)

(* --- Determinism ------------------------------------------------------------ *)

let test_deterministic () =
  let p = small_dag ~seed:4 ~loops:16 in
  let _, a = plan_exn (cfg ~seed:7 ()) p in
  let _, b = plan_exn (cfg ~seed:7 ()) p in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "same seed, same plan"
    a.Search.plan b.Search.plan;
  check (Alcotest.float 1e-6) "same objective" a.Search.objective
    b.Search.objective;
  check Alcotest.int "same candidate count" a.Search.candidates
    b.Search.candidates

(* The annealer's path on the benchmark instances, pinned: a change
   that only makes the search faster must reproduce the same plan, the
   same number of priced candidates and the same whole-plan traffic. *)
let pinned_anneal =
  [ ( 1,
      "3|2.5.8|11|1.4.6.7.9.10.14.15.16.21.25.28.38|0.12.13.17.18.19.20.22.23.24.26|34|40|27.29.30.31.32.33.35.36.37.39|41|42",
      520,
      9273344. );
    ( 2,
      "2.9|0.3.11.20|1.4.5.6.7.8.10.13.14.15.16.17.18.19.22.23.24.25.26.29.30.31.32.35.38|12.21.27.28.34.36.37.39|33|40|41|42",
      480,
      6455296. );
    ( 3,
      "0.1.2.3.4.5.6.7.8.9.10.11.12.13.14.15.16.17.18.19.20.21.22.24.25.26.29.30.31.32.35.37|27|23.28.36|33.34.39|38|40|41|42",
      422,
      6389760. );
    ( 4,
      "0|1|4.7.23|8|2.3.5.6.9.10.11.12.13.14.15.16.17.18.19.20.21.22.24.25.26.27.28.30.31.32.33.36.37.38|29.35.39|34|40|41|42",
      438,
      6848512. );
    ( 5,
      "0|2|6.10.12.13|15|7.16|1.8|3.4.5.9.11.14.17.18.19.20.21.22.23.24.25.26.27.28.30.31.32.33.35.36.39|29.34.37.38|40|41|42",
      440,
      7110656. ) ]

let test_pinned_anneal () =
  let machine = Bw_core.Experiments.origin_scaled in
  List.iter
    (fun (seed, signature, candidates, traffic) ->
      let name = Printf.sprintf "dag%dx40" seed in
      let p =
        Bw_workloads.Dag_family.generate ~seed ~loops:40
          ~n:(Bw_workloads.Dag_family.extent ~scale:1)
      in
      let _, st = plan_exn (Search.default_config ~machine ()) p in
      check Alcotest.string (name ^ ": plan") signature
        (Cost.signature st.Search.plan);
      check Alcotest.int (name ^ ": candidates") candidates
        st.Search.candidates;
      check (Alcotest.float 0.0) (name ^ ": traffic") traffic
        st.Search.traffic)
    pinned_anneal

let test_dag_family_deterministic () =
  let a = small_dag ~seed:9 ~loops:20 in
  let b = small_dag ~seed:9 ~loops:20 in
  check bool "same seed, same program" true (a = b);
  let c = small_dag ~seed:10 ~loops:20 in
  check bool "different seed, different program" true (a <> c)

let test_dag_of_name () =
  (match Bw_workloads.Dag_family.of_name "dag3x120" with
  | Some build ->
    let p = build ~scale:1 in
    check Alcotest.string "name round-trips" "dag3x120" p.Bw_ir.Ast.prog_name
  | None -> Alcotest.fail "dag3x120 should parse");
  check bool "junk rejected" true
    (Bw_workloads.Dag_family.of_name "dagger" = None);
  check bool "trailing junk rejected" true
    (Bw_workloads.Dag_family.of_name "dag1x2x3" = None);
  check bool "registry names unaffected" true
    (Bw_workloads.Dag_family.of_name "fig4" = None)

(* --- Cost memo --------------------------------------------------------------- *)

let test_signature_and_memo () =
  check Alcotest.string "signature shape" "0.1|2"
    (Cost.signature [ [ 0; 1 ]; [ 2 ] ]);
  check bool "signature separates plans" true
    (Cost.signature [ [ 0; 1 ]; [ 2 ] ] <> Cost.signature [ [ 0 ]; [ 1; 2 ] ]);
  let p = small_dag ~seed:1 ~loops:6 in
  let memo = Cost.memo () in
  let plan = List.init (List.length p.Bw_ir.Ast.body) (fun i -> [ i ]) in
  let t1 = Cost.predicted_traffic_memo ~machine ~memo p plan in
  let t2 = Cost.predicted_traffic_memo ~machine ~memo p plan in
  check bool "memo returns identical result" true (t1 = t2);
  check Alcotest.int "one miss" 1 (Cost.memo_misses memo);
  check Alcotest.int "one hit" 1 (Cost.memo_hits memo)

(* --- Properties ---------------------------------------------------------------- *)

(* Both engines, over random QA programs and small DAG instances: the
   plan is structurally valid, and the committed program type-checks,
   passes the dependence-preservation lint, and agrees with the input
   under differential validation. *)
let qcheck_cases =
  let open QCheck in
  let programs seed =
    if seed mod 2 = 0 then Bw_qa.Gen.generate ~seed ~size:(4 + (seed mod 5))
    else small_dag ~seed ~loops:(6 + (seed mod 7))
  in
  let legal engine seed =
    let p = programs seed in
    let c = { (quick_cfg ~seed ()) with Search.engine } in
    match Search.plan c p with
    | Error e -> Test.fail_reportf "plan failed on seed %d: %s" seed e
    | Ok (plan, _) -> (
      let g = Fusion_graph.build p in
      (match Cost.validate g plan with
      | Ok () -> ()
      | Error e -> Test.fail_reportf "invalid plan on seed %d: %s" seed e);
      match Search.run c p with
      | Error e -> Test.fail_reportf "run failed on seed %d: %s" seed e
      | Ok (p', _) -> (
        (match Bw_ir.Check.check p' with
        | Ok () -> ()
        | Error _ -> Test.fail_reportf "ill-typed output on seed %d" seed);
        if not (Bw_analysis.Preserve.lint_ok ~before:p ~after:p') then
          Test.fail_reportf "preserve lint failed on seed %d" seed;
        match
          Bw_transform.Guard.validate_pair ~trials:1 ~before:p ~after:p' ()
        with
        | Ok () -> true
        | Error e ->
          Test.fail_reportf "behaviour changed on seed %d: %s" seed e))
  in
  [ Test.make ~name:"greedy plans are legal and behaviour-preserving"
      ~count:12 (int_range 1 500) (legal Search.Greedy);
    Test.make ~name:"annealed plans are legal and behaviour-preserving"
      ~count:12 (int_range 1 500) (legal Search.Anneal) ]

let suites =
  [ ( "fusion.search",
      [ Alcotest.test_case "exact oracle agreement" `Quick
          test_exact_oracle_agreement;
        Alcotest.test_case "exact refuses large instances" `Quick
          test_exact_refuses_large;
        Alcotest.test_case "anneal beats greedy" `Slow test_anneal_beats_greedy;
        Alcotest.test_case "determinism" `Quick test_deterministic;
        Alcotest.test_case "pinned anneal on dag1x40..dag5x40" `Quick
          test_pinned_anneal ] );
    ( "fusion.search.cost",
      [ Alcotest.test_case "signature and memo" `Quick test_signature_and_memo ] );
    ( "workloads.dag_family",
      [ Alcotest.test_case "determinism" `Quick test_dag_family_deterministic;
        Alcotest.test_case "of_name" `Quick test_dag_of_name ] );
    ( "fusion.search.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_cases ) ]
