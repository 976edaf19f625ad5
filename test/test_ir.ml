open Bw_ir
open Bw_ir.Ast
module Parse = Bw_lang.Parse
module Lexer = Bw_lang.Lexer

let check = Alcotest.check
let str_list = Alcotest.(list string)

(* A small well-formed program used across tests. *)
let sample_program =
  let open Builder in
  program "sample"
    ~decls:
      [ array "a" [ 10 ]; array "b" [ 10 ]; scalar "sum"; scalar "t" ]
    ~live_out:[ "sum" ]
    [ for_ "i" (int 1) (int 10)
        [ ("a" $. [ v "i" ]) <-- (("a" $ [ v "i" ]) +: ("b" $ [ v "i" ])) ];
      for_ "i" (int 1) (int 10)
        [ sc "sum" <-- (v "sum" +: ("a" $ [ v "i" ])) ];
      print (v "sum") ]

let test_check_accepts_sample () =
  match Check.check sample_program with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "unexpected errors: %s"
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Check.pp_error e) es))

let expect_reject name program =
  match Check.check program with
  | Ok () -> Alcotest.failf "%s: expected a check error" name
  | Error _ -> ()

let test_check_rejects_undeclared () =
  let open Builder in
  expect_reject "undeclared array"
    (program "bad" ~decls:[]
       [ for_ "i" (int 1) (int 5) [ ("a" $. [ v "i" ]) <-- fl 0.0 ] ])

let test_check_rejects_duplicate_decl () =
  let open Builder in
  expect_reject "duplicate"
    (program "bad" ~decls:[ scalar "x"; scalar "x" ] [])

let test_check_rejects_wrong_arity () =
  let open Builder in
  expect_reject "arity"
    (program "bad"
       ~decls:[ array "a" [ 4; 4 ] ]
       [ for_ "i" (int 1) (int 4) [ ("a" $. [ v "i" ]) <-- fl 1.0 ] ])

let test_check_rejects_float_subscript () =
  let open Builder in
  expect_reject "float subscript"
    (program "bad"
       ~decls:[ array "a" [ 4 ]; scalar "x" ]
       [ ("a" $. [ v "x" ]) <-- fl 1.0 ])

let test_check_rejects_loop_index_assignment () =
  let open Builder in
  expect_reject "loop index assignment"
    (program "bad" ~decls:[]
       [ for_ "i" (int 1) (int 4) [ sc "i" <-- int 0 ] ])

let test_check_rejects_mixed_types () =
  let open Builder in
  expect_reject "mixed"
    (program "bad" ~decls:[ scalar "x" ] [ sc "x" <-- (v "x" +: int 1) ])

let test_check_rejects_shadowing_loop () =
  let open Builder in
  expect_reject "index shadows decl"
    (program "bad" ~decls:[ scalar "i" ]
       [ for_ "i" (int 1) (int 3) [] ])

let test_check_rejects_bad_live_out () =
  let open Builder in
  expect_reject "live_out" (program "bad" ~decls:[] ~live_out:[ "ghost" ] [])

let test_check_rejects_mod_float () =
  let open Builder in
  expect_reject "mod float"
    (program "bad" ~decls:[ scalar "x" ] [ sc "x" <-- (v "x" %: v "x") ])

(* --- Ast_util ----------------------------------------------------------- *)

let test_vars_read_written () =
  check str_list "reads" [ "i"; "a"; "b"; "sum" ]
    (Ast_util.vars_read sample_program.body);
  check str_list "written" [ "a"; "sum" ]
    (Ast_util.vars_written sample_program.body)

let test_arrays_accessed () =
  check str_list "arrays" [ "a"; "b" ]
    (Ast_util.arrays_accessed sample_program sample_program.body)

let test_loop_indices () =
  check str_list "indices" [ "i" ] (Ast_util.loop_indices sample_program.body)

let test_rename_scalar () =
  let open Builder in
  let stmts = [ for_ "i" (int 1) (v "n") [ sc "x" <-- to_float (v "i") ] ] in
  let renamed = Ast_util.rename_scalar ~from:"i" ~into:"j" stmts in
  match renamed with
  | [ For { index = "j"; body = [ Assign (Lscalar "x", Unary (Int_to_float, Scalar "j")) ]; _ } ] ->
    ()
  | _ -> Alcotest.fail "rename did not rewrite loop header and body"

let test_rename_leaves_others () =
  let open Builder in
  let stmts = [ sc "y" <-- (v "x" +: v "x") ] in
  check Alcotest.bool "unchanged" true
    (Stdlib.( = ) (Ast_util.rename_scalar ~from:"z" ~into:"w" stmts) stmts)

let test_subst_scalar () =
  let open Builder in
  let e = v "n" +: int 1 in
  let s = Ast_util.subst_scalar ~name:"n" ~value:(int 41) e in
  check Alcotest.bool "substituted" true (Stdlib.( = ) s (int 41 +: int 1))

let test_subst_rejects_write () =
  let open Builder in
  Alcotest.check_raises "written var"
    (Invalid_argument "Ast_util.subst_scalar_stmts: variable is written")
    (fun () ->
      ignore
        (Ast_util.subst_scalar_stmts ~name:"x" ~value:(Builder.int 1)
           [ sc "x" <-- int 2 ]))

let test_fresh_name () =
  check Alcotest.string "free" "tmp" (Ast_util.fresh_name ~taken:[ "a" ] "tmp");
  check Alcotest.string "collision" "tmp2"
    (Ast_util.fresh_name ~taken:[ "tmp"; "tmp1" ] "tmp")

let test_stmt_count () =
  (* two loops + two loop-body assigns + the print *)
  check Alcotest.int "count" 5 (Ast_util.stmt_count sample_program.body)

(* --- Pretty / Parser round trips ------------------------------------------ *)

let test_pretty_expr () =
  let open Builder in
  let e = (v "a" +: v "b") *: v "c" in
  check Alcotest.string "parens" "(a + b) * c" (Pretty.expr_to_string e);
  let e2 = v "a" +: (v "b" *: v "c") in
  check Alcotest.string "no parens" "a + b * c" (Pretty.expr_to_string e2)

let test_parse_simple_program () =
  let src =
    {|
    program two_loops
      real a[100] = linear(0.0, 1.0)
      real sum
      live_out sum
      for i = 1, 100
        a[i] = a[i] + 0.4
      end for
      for i = 1, 100
        sum = sum + a[i]
      end for
      print sum
    end
    |}
  in
  match Parse.parse_program src with
  | Error e -> Alcotest.failf "parse failed: %a" Parse.pp_error e
  | Ok p ->
    check Alcotest.string "name" "two_loops" p.prog_name;
    check Alcotest.int "decls" 2 (List.length p.decls);
    check Alcotest.int "stmts" 3 (List.length p.body);
    check str_list "live_out" [ "sum" ] p.live_out

let test_parse_if_and_intrinsics () =
  let src =
    {|
    program cond
      real b[10]
      real x
      for j = 2, 10
        if (j <= 9)
          x = f(b[j], x)
        else
          x = g(x)
        end if
      end for
    end
    |}
  in
  match Parse.parse_program src with
  | Error e -> Alcotest.failf "parse failed: %a" Parse.pp_error e
  | Ok p -> check Alcotest.int "stmts" 1 (List.length p.body)

let test_parse_step_and_multidim () =
  let src =
    {|
    program tiles
      real a[8,8]
      for jj = 1, 8, 4
        for j = jj, min(jj + 3, 8)
          for i = 1, 8
            a[i,j] = a[i,j] * 2.0
          end for
        end for
      end for
    end
    |}
  in
  match Parse.parse_program src with
  | Error e -> Alcotest.failf "parse failed: %a" Parse.pp_error e
  | Ok p -> (
    match p.body with
    | [ For { step = Int_lit 4; _ } ] -> ()
    | _ -> Alcotest.fail "expected a stepped loop")

let test_parse_errors_are_located () =
  let src = "program p\n  real a[4]\n  a[1] =\nend" in
  match Parse.parse_program src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
    check Alcotest.(pair int int) "line:col recorded" (4, 1)
      (e.Parse.line, e.Parse.col)

let test_parse_rejects_ill_typed () =
  let src =
    {|
    program bad
      real a[4]
      integer k
      for i = 1, 4
        a[i] = k
      end for
    end
    |}
  in
  match Parse.parse_program src with
  | Ok _ -> Alcotest.fail "expected a check error"
  | Error _ -> ()

let test_roundtrip_pretty_parse () =
  (* Pretty-printed programs are re-parseable and structurally equal. *)
  let printed = Pretty.program_to_string sample_program in
  match Parse.parse_program printed with
  | Error e -> Alcotest.failf "roundtrip failed: %a@,%s" Parse.pp_error e printed
  | Ok p ->
    check Alcotest.bool "same body" true (p.body = sample_program.body)

let test_lexer_comments_and_case () =
  let tokens = Lexer.tokenize "For I=1, N // comment\nEND FOR" in
  let located t =
    Printf.sprintf "%d:%d %s" t.Lexer.pos.line t.Lexer.pos.col
      (Lexer.token_to_string t.Lexer.token)
  in
  check str_list "tokens with line:column"
    [ "1:1 keyword 'for'"; "1:5 identifier 'I'"; "1:6 '='"; "1:7 integer 1";
      "1:8 ','"; "1:10 identifier 'N'"; "2:1 keyword 'end'";
      "2:5 keyword 'for'"; "2:8 end of input" ]
    (List.map located tokens)

let test_lexer_numbers () =
  let tokens = Lexer.tokenize "1 2.5 3e2 4.5e-1" in
  let kinds = List.map (fun t -> t.Lexer.token) tokens in
  check Alcotest.bool "int" true (List.mem (Lexer.INT 1) kinds);
  check Alcotest.bool "float" true (List.mem (Lexer.FLOAT 2.5) kinds);
  check Alcotest.bool "exp" true (List.mem (Lexer.FLOAT 300.0) kinds);
  check Alcotest.bool "neg exp" true (List.mem (Lexer.FLOAT 0.45) kinds)

let test_lexer_error () =
  match Lexer.tokenize "a @ b" with
  | exception Lexer.Lex_error (_, { line = 1; col = 3 }) -> ()
  | _ -> Alcotest.fail "expected a lex error at 1:3"

(* --- QCheck: substitution and renaming --------------------------------------- *)

let gen_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ map (fun i -> Int_lit i) small_int;
                return (Scalar "n");
                return (Scalar "m") ]
          else
            frequency
              [ (1, map (fun i -> Int_lit i) small_int);
                (1, return (Scalar "n"));
                ( 2,
                  map2
                    (fun a b -> Binary (Add, a, b))
                    (self (n / 2)) (self (n / 2)) );
                ( 1,
                  map2
                    (fun a b -> Binary (Mul, a, b))
                    (self (n / 2)) (self (n / 2)) ) ])
        (min n 8))

let arb_expr = QCheck.make ~print:Pretty.expr_to_string gen_expr

let qcheck_cases =
  let open QCheck in
  [ Test.make ~name:"substituting an absent name is identity" ~count:200
      arb_expr (fun e ->
        Ast_util.subst_scalar ~name:"zz" ~value:(Int_lit 0) e = e);
    Test.make ~name:"substitution removes the name" ~count:200 arb_expr
      (fun e ->
        let e' = Ast_util.subst_scalar ~name:"n" ~value:(Int_lit 7) e in
        not (List.mem "n" (Ast_util.expr_reads e')));
    Test.make ~name:"pretty/parse expression roundtrip" ~count:200 arb_expr
      (fun e ->
        match Parse.parse_expr (Pretty.expr_to_string e) with
        | Ok e' -> e' = e
        | Error _ -> false) ]

(* --- Digest: the serve cache-key primitive ----------------------------------- *)

let test_digest_roundtrip_stable () =
  (* digest must survive a pretty/parse round trip byte-for-byte *)
  List.iter
    (fun p ->
      let src = Pretty.program_to_string p in
      let q = Parse.parse_program_exn src in
      check Alcotest.bool "roundtrip equal_program" true (equal_program p q);
      check Alcotest.string "digest stable across roundtrip"
        (Digest.program p) (Digest.program q))
    [ sample_program; Bw_qa.Gen.generate ~seed:7 ~size:5 ]

let test_digest_separates_programs () =
  let d = Digest.program sample_program in
  check Alcotest.bool "renamed program digests differently" false
    (d = Digest.program { sample_program with prog_name = "other" });
  check Alcotest.bool "changed live_out digests differently" false
    (d = Digest.program { sample_program with live_out = [] });
  check Alcotest.bool "reordered decls digest differently" false
    (d
    = Digest.program
        { sample_program with decls = List.rev sample_program.decls })

let test_digest_zero_canonical () =
  (* -0.0 = 0.0, so equal_program cannot separate these; the digest
     must not either *)
  let prog lit =
    { prog_name = "z";
      decls = [ { var_name = "x"; dtype = F64; dims = []; init = Init_zero } ];
      body = [ Assign (Lscalar "x", Float_lit lit); Print (Scalar "x") ];
      live_out = [ "x" ] }
  in
  check Alcotest.bool "equal_program on +-0.0" true
    (equal_program (prog 0.0) (prog (-0.0)));
  check Alcotest.string "digest on +-0.0" (Digest.program (prog 0.0))
    (Digest.program (prog (-0.0)))

let test_digest_body_only () =
  let renamed = { sample_program with prog_name = "other" } in
  check Alcotest.string "body_only ignores the name"
    (Digest.body_only sample_program) (Digest.body_only renamed);
  check Alcotest.bool "program digest does not" false
    (Digest.program sample_program = Digest.program renamed)

let qcheck_digest_cases =
  let open QCheck in
  let arb_seed = QCheck.make ~print:string_of_int Gen.(0 -- 10_000) in
  [ Test.make ~name:"equal programs digest equally (generator roundtrip)"
      ~count:100 arb_seed (fun seed ->
        let p = Bw_qa.Gen.generate ~seed ~size:4 in
        let q = Parse.parse_program_exn (Pretty.program_to_string p) in
        equal_program p q && Digest.program p = Digest.program q);
    Test.make ~name:"distinct seeds rarely collide" ~count:50 arb_seed
      (fun seed ->
        let p = Bw_qa.Gen.generate ~seed ~size:4 in
        let q = Bw_qa.Gen.generate ~seed:(seed + 50_000) ~size:4 in
        equal_program p q || Digest.program p <> Digest.program q) ]

let suites =
  [ ( "ir.check",
      [ Alcotest.test_case "accepts sample" `Quick test_check_accepts_sample;
        Alcotest.test_case "rejects undeclared" `Quick test_check_rejects_undeclared;
        Alcotest.test_case "rejects duplicates" `Quick test_check_rejects_duplicate_decl;
        Alcotest.test_case "rejects wrong arity" `Quick test_check_rejects_wrong_arity;
        Alcotest.test_case "rejects float subscript" `Quick test_check_rejects_float_subscript;
        Alcotest.test_case "rejects index assignment" `Quick test_check_rejects_loop_index_assignment;
        Alcotest.test_case "rejects mixed types" `Quick test_check_rejects_mixed_types;
        Alcotest.test_case "rejects shadowing" `Quick test_check_rejects_shadowing_loop;
        Alcotest.test_case "rejects bad live_out" `Quick test_check_rejects_bad_live_out;
        Alcotest.test_case "rejects float mod" `Quick test_check_rejects_mod_float ] );
    ( "ir.ast_util",
      [ Alcotest.test_case "vars read/written" `Quick test_vars_read_written;
        Alcotest.test_case "arrays accessed" `Quick test_arrays_accessed;
        Alcotest.test_case "loop indices" `Quick test_loop_indices;
        Alcotest.test_case "rename scalar" `Quick test_rename_scalar;
        Alcotest.test_case "rename leaves others" `Quick test_rename_leaves_others;
        Alcotest.test_case "subst scalar" `Quick test_subst_scalar;
        Alcotest.test_case "subst rejects writes" `Quick test_subst_rejects_write;
        Alcotest.test_case "fresh name" `Quick test_fresh_name;
        Alcotest.test_case "stmt count" `Quick test_stmt_count ] );
    ( "ir.parse",
      [ Alcotest.test_case "simple program" `Quick test_parse_simple_program;
        Alcotest.test_case "if and intrinsics" `Quick test_parse_if_and_intrinsics;
        Alcotest.test_case "step and multidim" `Quick test_parse_step_and_multidim;
        Alcotest.test_case "errors located" `Quick test_parse_errors_are_located;
        Alcotest.test_case "rejects ill-typed" `Quick test_parse_rejects_ill_typed;
        Alcotest.test_case "pretty/parse roundtrip" `Quick test_roundtrip_pretty_parse;
        Alcotest.test_case "pretty expr" `Quick test_pretty_expr ] );
    ( "ir.lexer",
      [ Alcotest.test_case "comments and case" `Quick test_lexer_comments_and_case;
        Alcotest.test_case "numbers" `Quick test_lexer_numbers;
        Alcotest.test_case "errors" `Quick test_lexer_error ] );
    ( "ir.digest",
      [ Alcotest.test_case "roundtrip stable" `Quick test_digest_roundtrip_stable;
        Alcotest.test_case "separates programs" `Quick test_digest_separates_programs;
        Alcotest.test_case "+-0.0 canonical" `Quick test_digest_zero_canonical;
        Alcotest.test_case "body_only" `Quick test_digest_body_only ] );
    ( "ir.properties",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        (qcheck_cases @ qcheck_digest_cases) )
  ]
