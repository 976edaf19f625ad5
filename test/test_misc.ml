(* Corner-case coverage that the per-module suites do not reach:
   simplifier algebra, interpreter edge semantics, probe shapes on the
   second machine, distribution interplay, hyper-fusion validation. *)

open Bw_ir
module Parse = Bw_lang.Parse

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Simplify corners ------------------------------------------------------ *)

let test_simplify_or_and_not () =
  let open Builder in
  (match Bw_transform.Simplify.fold_cond (or_ (int 1 >: int 2) (int 3 >: int 2)) with
  | `True -> ()
  | _ -> Alcotest.fail "or folds to true");
  (match Bw_transform.Simplify.fold_cond (not_ (int 1 >: int 2)) with
  | `True -> ()
  | _ -> Alcotest.fail "not folds");
  (* partial folding keeps the residual condition *)
  match Bw_transform.Simplify.fold_cond (and_ (int 2 >: int 1) (v "x" <: int 5)) with
  | `Cond (Ast.Cmp (Ast.Lt, Ast.Scalar "x", Ast.Int_lit 5)) -> ()
  | _ -> Alcotest.fail "residual kept"

let test_simplify_identities () =
  let open Builder in
  check bool "x+0" true
    (Bw_transform.Simplify.fold_expr (v "x" +: int 0) = v "x");
  check bool "1*x" true
    (Bw_transform.Simplify.fold_expr (int 1 *: v "x") = v "x");
  check bool "x-0" true
    (Bw_transform.Simplify.fold_expr (v "x" -: int 0) = v "x");
  (* division by a literal zero must NOT fold away *)
  check bool "x/0 preserved" true
    (Bw_transform.Simplify.fold_expr (int 4 /: int 0) = (int 4 /: int 0))

let test_simplify_empty_loop_dropped () =
  let p =
    Parse.parse_program_exn
      {|
      program empty
        real s
        live_out s
        for i = 10, 2
          s = s + 1.0
        end for
        print s
      end
      |}
  in
  let p' = Bw_transform.Simplify.simplify_program p in
  check int "empty loop removed" 1 (List.length p'.Ast.body);
  let o1 = Bw_exec.Interp.run p and o2 = Bw_exec.Interp.run p' in
  check bool "same" true (Bw_exec.Interp.equal_observation o1 o2)

(* --- Interpreter corners ----------------------------------------------------- *)

let test_init_lanes_semantics () =
  let open Builder in
  (* g[2, n] with Init_lanes(linear, 2): g[1,k] = g[2,k] = linear(k-1) *)
  let p =
    program "lanes"
      ~decls:
        [ { Ast.var_name = "g";
            dtype = Ast.F64;
            dims = [ 2; 4 ];
            init = Ast.Init_lanes (Ast.Init_linear (0.0, 1.0), 2) } ]
      ~live_out:[ "g" ] []
  in
  let obs = Bw_exec.Interp.run p in
  match Lazy.force obs.Bw_exec.Interp.finals with
  | [ ("g", values) ] ->
    (* column-major: offsets 0..7 -> member offset k/2 = 0,0,1,1,... *)
    let f k =
      match values.(k) with
      | Bw_exec.Interp.V_float x -> x
      | _ -> Alcotest.fail "float expected"
    in
    check (Alcotest.float 0.0) "lane pair equal" (f 0) (f 1);
    check (Alcotest.float 0.0) "next pair" (f 2) (f 3);
    check bool "pairs differ" true (f 0 <> f 2)
  | _ -> Alcotest.fail "expected g"

let test_interp_division_by_zero () =
  let p =
    Parse.parse_program_exn
      {|
      program div0
        integer k
        k = 4 / (k - 0)
      end
      |}
  in
  match Bw_exec.Interp.run p with
  | exception Bw_exec.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected division-by-zero error"

let test_interp_min_max_semantics () =
  let p =
    Parse.parse_program_exn
      {|
      program mm
        real x
        integer k
        x = min(3.0, 4.0) + max(1.0, 2.0)
        k = min(7, 5)
        print x
        print k
      end
      |}
  in
  match (Bw_exec.Interp.run p).Bw_exec.Interp.prints with
  | [ Bw_exec.Interp.V_float x; Bw_exec.Interp.V_int k ] ->
    check (Alcotest.float 1e-12) "min+max" 5.0 x;
    check int "int min" 5 k
  | _ -> Alcotest.fail "expected two prints"

(* --- Probes on the Exemplar ---------------------------------------------------- *)

let test_exemplar_stream_band () =
  let r = Bw_machine.Probes.stream ~elements:300_000 Bw_machine.Machine.exemplar in
  (* nominal-accounted copy on a 560 MB/s bus with write penalty *)
  check bool
    (Printf.sprintf "copy %.0f in [300,600]" r.Bw_machine.Probes.copy)
    true
    (r.Bw_machine.Probes.copy > 300.0 && r.Bw_machine.Probes.copy < 600.0)

(* --- Hyper_fusion validation ----------------------------------------------------- *)

let test_hyper_fusion_validate () =
  let h = Bw_graph.Hypergraph.create () in
  Bw_graph.Hypergraph.ensure_nodes h 3;
  ignore (Bw_graph.Hypergraph.add_edge h [ 0; 1 ]);
  let deps = Bw_graph.Digraph.of_edges ~n:3 [ (0, 1) ] in
  let inst =
    { Bw_fusion.Hyper_fusion.nodes = 3; hyper = h; preventing = [ (1, 2) ]; deps }
  in
  let ok = Bw_fusion.Hyper_fusion.validate inst [ [ 0; 1 ]; [ 2 ] ] in
  check bool "valid plan accepted" true (ok = Ok ());
  let bad1 = Bw_fusion.Hyper_fusion.validate inst [ [ 0; 1; 2 ] ] in
  check bool "preventing pair rejected" true (Result.is_error bad1);
  let bad2 = Bw_fusion.Hyper_fusion.validate inst [ [ 1 ]; [ 0; 2 ] ] in
  check bool "backward dependence rejected" true (Result.is_error bad2);
  let bad3 = Bw_fusion.Hyper_fusion.validate inst [ [ 0 ]; [ 2 ] ] in
  check bool "missing node rejected" true (Result.is_error bad3)

(* --- Distribution + strategy interplay ------------------------------------------- *)

let test_scattered_program_recovers_via_strategy () =
  (* write a program as one big fused loop, distribute it into minimal
     pieces, and confirm the strategy pipeline re-optimises the scattered
     version to (at least) the traffic of the optimised original *)
  let p = Bw_workloads.Fig7.fused_by_hand ~n:100_000 in
  let scattered = Bw_transform.Distribute.distribute_all p in
  let machine = Bw_machine.Machine.origin2000 in
  let traffic q =
    let q', _ = Bw_transform.Strategy.run q in
    Bw_machine.Timing.memory_bytes
      (Bw_exec.Run.simulate ~machine q').Bw_exec.Run.cache
  in
  check int "same optimised traffic from both forms" (traffic p)
    (traffic scattered)

let test_parse_error_positions_stable () =
  (* regression guard: messages carry the position of the offending token *)
  let src = "program p\n real a[4]\n for i = 1, 4\n a[i] = \n end for\nend" in
  match Parse.parse_program src with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e ->
    check Alcotest.(pair int int) "line:col of 'end'" (5, 2)
      (e.Parse.line, e.Parse.col)

let suites =
  [ ( "misc.simplify",
      [ Alcotest.test_case "or/not folding" `Quick test_simplify_or_and_not;
        Alcotest.test_case "identities" `Quick test_simplify_identities;
        Alcotest.test_case "empty loop" `Quick test_simplify_empty_loop_dropped ] );
    ( "misc.interp",
      [ Alcotest.test_case "Init_lanes" `Quick test_init_lanes_semantics;
        Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
        Alcotest.test_case "min/max" `Quick test_interp_min_max_semantics ] );
    ( "misc.machine",
      [ Alcotest.test_case "exemplar stream band" `Slow test_exemplar_stream_band ] );
    ( "misc.fusion",
      [ Alcotest.test_case "hyper_fusion validate" `Quick test_hyper_fusion_validate ] );
    ( "misc.pipeline",
      [ Alcotest.test_case "scatter + strategy recovers" `Quick test_scattered_program_recovers_via_strategy;
        Alcotest.test_case "parse error lines" `Quick test_parse_error_positions_stable ] )
  ]
