(* The .bw surface-language front end and the data-layout pass.

   - positioned parser: accepts the whole grammar, reports every
     diagnostic with an exact line and column (pinned strings below);
   - round trip: generated programs print and re-parse to an equal AST
     (QCheck over 100 seeds);
   - golden renderer: deterministic, byte-identical re-rendering;
   - layout pass: padding/splitting/transposition preserve observable
     behaviour (differential validation + Preserve lint) and cut
     simulated memory traffic on random-page-placement machines. *)

open Bw_ir
module Parse = Bw_lang.Parse
module Layout = Bw_transform.Layout

let check = Alcotest.check

(* --- the positioned parser ------------------------------------------------ *)

let parse_ok src =
  match Parse.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" (Parse.error_to_string e)

let expect_error src expected =
  match Parse.parse_program src with
  | Ok _ -> Alcotest.failf "expected %S, parse succeeded" expected
  | Error e ->
    check Alcotest.string "pinned rendering" expected (Parse.error_to_string e)

let test_accepts_legacy_grammar () =
  let p =
    parse_ok
      "program two\n\
      \  real a[8] = hash(1)\n\
      \  real s\n\
      \  live_out s\n\
       for i = 1, 8\n\
      \  if (s > 2.0 and a[i] < 4.0)\n\
      \    s = s + a[i]\n\
      \  end if\n\
       end for\n\
       print s\n\
       end"
  in
  check Alcotest.string "name" "two" p.Ast.prog_name;
  check Alcotest.int "stmts" 2 (List.length p.Ast.body)

let test_error_positions () =
  (* every diagnostic is one line with an exact line:column anchor *)
  expect_error "program p\n  real a[4]\n  live_out a\na[1] = b\nend"
    "4:8: undeclared variable 'b'";
  expect_error "program p\n  real a[4]\n  live_out a\nx[1] = 2.0\nend"
    "4:1: undeclared array 'x'";
  expect_error "program p\n  real a[4]\n  real s\n  live_out s\ns = a\nend"
    "5:5: array 'a' used without subscripts";
  expect_error "program p\n  real s\n  live_out s\ns[1] = 2.0\nend"
    "4:1: scalar 's' cannot be subscripted";
  expect_error "program p\n  real a[4,4]\n  live_out a\na[1] = 2.0\nend"
    "4:1: array 'a' has 2 dimension(s), found 1 subscript(s)";
  expect_error "program p\n  real a[4]\n  real a\n  live_out a\nend"
    "3:8: duplicate declaration of 'a'";
  expect_error "program p\n  real a[4]\n  live_out a, b\nend"
    "3:15: live_out name 'b' is not declared";
  expect_error
    "program p\n  real a[4]\n  live_out a\nfor i = 1, 4\n  i = 2\nend for\nend"
    "5:3: loop index 'i' cannot be assigned";
  expect_error
    "program p\n  real i\n  live_out i\nfor i = 1, 4\nend for\nend"
    "4:5: loop index 'i' shadows a declaration";
  expect_error "program p\n  real a[4]\n  a[1] =\nend"
    "4:1: expected an expression, found keyword 'end'";
  expect_error "program p\n real a[4]\n for i = 1, 4\n a[i] = \n end for\nend"
    "5:2: expected an expression, found keyword 'end'";
  expect_error "program p\n  real a[99999999999999999999]\nend"
    "2:10: integer literal out of range";
  expect_error "program p\n  real s\n  live_out s\ns = 1e\nend"
    "4:5: malformed float literal"

let test_lex_error_position () =
  expect_error "program p\n  real a[4]\n  live_out a\na[1] = @\nend"
    "4:8: unexpected character '@'"

let test_file_errors_are_total () =
  (match Parse.parse_file "/no/such/place.bw" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
    check Alcotest.bool "one line" false (String.contains msg '\n'));
  match Bw_core.Loader.load_program ~scale:1 "/no/such/place.bw" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg -> check Alcotest.bool "one line" false (String.contains msg '\n')

let test_parenthesized_conditions () =
  (* what pp_cond prints for nested and/or *)
  let src =
    "program p\n\
    \  real s\n\
    \  live_out s\n\
     if (((s > 1.0 and s < 2.0) or not (s = 0.0)))\n\
    \  s = s + 1.0\n\
     end if\n\
     end"
  in
  let s = Ast.Scalar "s" in
  let expected =
    Ast.Or
      ( Ast.And
          ( Ast.Cmp (Ast.Gt, s, Ast.Float_lit 1.0),
            Ast.Cmp (Ast.Lt, s, Ast.Float_lit 2.0) ),
        Ast.Not (Ast.Cmp (Ast.Eq, s, Ast.Float_lit 0.0)) )
  in
  match (parse_ok src).Ast.body with
  | [ Ast.If (c, _, []) ] ->
    check Alcotest.bool "nested condition" true (Ast.equal_cond c expected)
  | _ -> Alcotest.fail "expected one if statement"

(* --- print/parse round trip ----------------------------------------------- *)

let roundtrip_seed seed =
  let p = Bw_qa.Gen.generate ~seed ~size:6 in
  let printed = Pretty.program_to_string p in
  match Parse.parse_program printed with
  | Ok q -> Ast.equal_program p q
  | Error e ->
    Alcotest.failf "seed %d: parser rejected printed form: %s@.%s" seed
      (Parse.error_to_string e) printed

let roundtrip_prop =
  QCheck.Test.make ~count:100 ~name:"print/parse round trip"
    (QCheck.make QCheck.Gen.(map (fun n -> n + 1) (int_bound 9999)))
    roundtrip_seed

let test_float_literals_stay_floats () =
  (* "x = 0.0" must not re-parse as an integer assignment *)
  let p =
    Builder.program "zeros"
      ~decls:[ Builder.array "a" [ 4 ] ]
      ~live_out:[ "a" ]
      Builder.
        [ for_ "i" (int 1) (int 4) [ ("a" $. [ v "i" ]) <-- fl 0.0 ] ]
  in
  let printed = Pretty.program_to_string p in
  check Alcotest.bool "roundtrips equal" true
    (Ast.equal_program p (parse_ok printed));
  let fft = (Option.get (Bw_workloads.Registry.find "fft")).build ~scale:1 in
  check Alcotest.bool "fft roundtrips equal" true
    (Ast.equal_program fft (parse_ok (Pretty.program_to_string fft)))

(* --- golden rendering ------------------------------------------------------ *)

let test_golden_deterministic () =
  let p = (Option.get (Bw_workloads.Registry.find "mm_jki")).build ~scale:1 in
  let a = Bw_lang.Golden.render p and b = Bw_lang.Golden.render p in
  check Alcotest.string "byte-identical" a b;
  check Alcotest.bool "has sections" true
    (List.for_all
       (fun s ->
         let rec has i =
           i + String.length s <= String.length a
           && (String.sub a i (String.length s) = s || has (i + 1))
         in
         has 0)
       [ "== parse =="; "== check =="; "== analysis ==" ])

let test_golden_path_and_diff () =
  check Alcotest.string "path" "corpus/mm.golden"
    (Bw_lang.Golden.golden_path "corpus/mm.bw");
  (match Bw_lang.Golden.first_diff "a\nb\nc" "a\nB\nc" with
  | Some (2, "b", "B") -> ()
  | _ -> Alcotest.fail "expected a diff at line 2");
  check Alcotest.bool "equal -> None" true
    (Bw_lang.Golden.first_diff "x\ny" "x\ny" = None)

(* --- the data-layout pass -------------------------------------------------- *)

(* Small direct-mapped cache with pseudo-random page placement: the
   setting where strided and lane-padded traversals pay full lines. *)
let rp_machine =
  { Bw_machine.Machine.exemplar with
    Bw_machine.Machine.name = "exemplar-rp-8k";
    caches =
      [ { Bw_machine.Cache.size_bytes = 8 * 1024;
          line_bytes = 32;
          associativity = 1 } ];
    cache_bandwidths = [ 560e6 ];
    paging = Bw_machine.Machine.Random_pages { page_bytes = 1024; seed = 11 } }

let simulated_traffic p =
  let r = Bw_exec.Run.simulate ~machine:rp_machine p in
  Bw_machine.Timing.memory_bytes r.Bw_exec.Run.cache

(* inner loop walks the slow subscript of m: transpose territory *)
let col_sweep_src =
  "program col_sweep\n\
  \  real m[8,1024] = hash(7)\n\
  \  real acc[1] = zero\n\
  \  live_out acc\n\
   for t = 1, 8\n\
  \  for i = 1, 8\n\
  \    for j = 1, 1024\n\
  \      acc[1] = acc[1] + m[i,j]\n\
  \    end for\n\
  \  end for\n\
   end for\n\
   end"

(* four lanes packed per element, two of them hot: AoS -> SoA territory *)
let aos_stream_src =
  "program aos_stream\n\
  \  real p[4,4096] = linear(0, 0.125)\n\
  \  real s[1] = zero\n\
  \  live_out s\n\
   for t = 1, 4\n\
  \  for i = 1, 4096\n\
  \    s[1] = s[1] + p[1,i] * p[2,i]\n\
  \  end for\n\
   end for\n\
   end"

let assert_behaviour_preserved ~before ~after =
  (match Bw_transform.Guard.validate_pair ~before ~after () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "differential validation failed: %s" msg);
  match Bw_analysis.Preserve.lint ~before ~after with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "preserve lint flagged: %a" Bw_analysis.Preserve.pp_violation
      v

let test_layout_reduces_traffic_transpose () =
  let p = parse_ok col_sweep_src in
  let p', actions = Layout.run ~machine:rp_machine p in
  check Alcotest.bool "transposed m" true
    (List.exists (function Layout.Transpose { array = "m" } -> true | _ -> false)
       actions);
  (match Check.check p' with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "transformed program fails Check");
  assert_behaviour_preserved ~before:p ~after:p';
  let before = simulated_traffic p and after = simulated_traffic p' in
  if not (float_of_int after < 0.8 *. float_of_int before) then
    Alcotest.failf "no traffic win: %d -> %d bytes" before after

let test_layout_reduces_traffic_split () =
  let p = parse_ok aos_stream_src in
  let p', actions = Layout.run ~machine:rp_machine p in
  check Alcotest.bool "split p" true
    (List.exists
       (function Layout.Split { array = "p"; lanes = 4 } -> true | _ -> false)
       actions);
  (match Check.check p' with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "transformed program fails Check");
  assert_behaviour_preserved ~before:p ~after:p';
  let before = simulated_traffic p and after = simulated_traffic p' in
  if not (float_of_int after < 0.8 *. float_of_int before) then
    Alcotest.failf "no traffic win: %d -> %d bytes" before after

let test_pad_extends_last_dim_only () =
  let p = parse_ok aos_stream_src in
  let p' =
    match Layout.apply p (Layout.Pad { array = "p"; extra = 3 }) with
    | Ok p' -> p'
    | Error msg -> Alcotest.failf "pad failed: %s" msg
  in
  (match Ast.find_decl p' "p" with
  | Some d -> check (Alcotest.list Alcotest.int) "dims" [ 4; 4099 ] d.Ast.dims
  | None -> Alcotest.fail "p vanished");
  (* column-major: existing offsets are untouched, so behaviour holds *)
  assert_behaviour_preserved ~before:p ~after:p';
  match Layout.apply p (Layout.Pad { array = "s"; extra = 1 }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "padding a live-out array must be refused"

let test_layout_refuses_unsafe () =
  let p = parse_ok col_sweep_src in
  (match Layout.apply p (Layout.Split { array = "m"; lanes = 8 }) with
  | Error _ -> () (* lane subscript is a loop index, not a constant *)
  | Ok _ -> Alcotest.fail "split with non-constant lanes must be refused");
  (match Layout.apply p (Layout.Transpose { array = "nope" }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown array must be refused");
  (* a written 2-D array must not be transposed *)
  let q =
    parse_ok
      "program w\n\
      \  real m[4,4] = zero\n\
      \  live_out m\n\
       for i = 1, 4\n\
      \  for j = 1, 4\n\
      \    m[i,j] = 1.0\n\
      \  end for\n\
       end for\n\
       end"
  in
  match Layout.apply q (Layout.Transpose { array = "m" }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "transposing a written array must be refused"

let test_layout_identity_when_nothing_applies () =
  let p =
    parse_ok
      "program tiny\n  real s\n  live_out s\ns = 1.0\nend"
  in
  let p', actions = Layout.run ~machine:rp_machine p in
  check Alcotest.bool "unchanged" true (Ast.equal_program p p');
  check Alcotest.int "no actions" 0 (List.length actions)

let suites =
  [ ( "lang.parse",
      [ Alcotest.test_case "accepts legacy grammar" `Quick
          test_accepts_legacy_grammar;
        Alcotest.test_case "pinned error positions" `Quick test_error_positions;
        Alcotest.test_case "lex error position" `Quick test_lex_error_position;
        Alcotest.test_case "file errors are total" `Quick
          test_file_errors_are_total;
        Alcotest.test_case "parenthesized conditions" `Quick
          test_parenthesized_conditions;
        QCheck_alcotest.to_alcotest roundtrip_prop;
        Alcotest.test_case "float literals stay floats" `Quick
          test_float_literals_stay_floats ] );
    ( "lang.golden",
      [ Alcotest.test_case "deterministic rendering" `Quick
          test_golden_deterministic;
        Alcotest.test_case "paths and diffs" `Quick test_golden_path_and_diff ]
    );
    ( "transform.layout",
      [ Alcotest.test_case "transpose cuts random-page traffic" `Slow
          test_layout_reduces_traffic_transpose;
        Alcotest.test_case "AoS split cuts random-page traffic" `Slow
          test_layout_reduces_traffic_split;
        Alcotest.test_case "pad extends the last dimension" `Quick
          test_pad_extends_last_dim_only;
        Alcotest.test_case "unsafe rewrites are refused" `Quick
          test_layout_refuses_unsafe;
        Alcotest.test_case "identity when nothing applies" `Quick
          test_layout_identity_when_nothing_applies ] ) ]
