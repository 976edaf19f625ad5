(* The surface language end to end: parse a Fortran-like source text,
   type-check it, analyse its dependences, and watch the individual
   compiler passes rewrite it.

     dune exec examples/dsl_tour.exe *)

let source =
  {|
  program heatflow
    real t[50000]  = hash(7)
    real t2[50000]
    real probe[50000]
    real energy
    live_out energy

    // forward difference
    for i = 2, 49999
      t2[i] = t[i] + 0.1 * (t[i-1] - 2.0 * t[i] + t[i+1])
    end for

    // a probe array only consumed by the reduction below
    for i = 2, 49999
      probe[i] = t2[i] * t2[i]
    end for

    // total energy
    for i = 2, 49999
      energy = energy + probe[i]
    end for

    print energy
  end
  |}

let () =
  (* 1. parse + check *)
  let program =
    match Bw_lang.Parse.parse_program source with
    | Ok p -> p
    | Error e ->
      Format.eprintf "%s@." (Bw_lang.Parse.error_to_string e);
      exit 1
  in
  Format.printf "parsed '%s': %d declarations, %d statements@.@."
    program.Bw_ir.Ast.prog_name
    (List.length program.Bw_ir.Ast.decls)
    (List.length program.Bw_ir.Ast.body);

  (* 2. dependence analysis: which adjacent loops may fuse? *)
  let loops =
    List.filter_map
      (function Bw_ir.Ast.For l -> Some l | _ -> None)
      program.Bw_ir.Ast.body
  in
  List.iteri
    (fun i l1 ->
      match List.nth_opt loops (i + 1) with
      | None -> ()
      | Some l2 ->
        (match Bw_analysis.Depend.fusable l1 l2 with
        | Ok () -> Format.printf "loops %d and %d: fusable@." i (i + 1)
        | Error why ->
          Format.printf "loops %d and %d: not fusable (%s)@." i (i + 1) why))
    loops;

  (* 3. live ranges of the arrays *)
  Format.printf "@.array live ranges (top-level statement spans):@.";
  List.iter
    (fun r -> Format.printf "  %a@." Bw_analysis.Live.pp_range r)
    (Bw_analysis.Live.analyse program);

  (* 4. pass by pass *)
  let fused = Bw_transform.Fuse.greedy program in
  Format.printf "@.after greedy fusion: %d statements@."
    (List.length fused.Bw_ir.Ast.body);
  let contracted, arrays = Bw_transform.Contract.contract_arrays fused in
  Format.printf "contracted to scalars: %s@."
    (match arrays with [] -> "-" | l -> String.concat ", " l);
  let eliminated, dead = Bw_transform.Store_elim.run contracted in
  Format.printf "stores eliminated for: %s@.@."
    (match dead with [] -> "-" | l -> String.concat ", " l);
  Format.printf "--- final program ---@.%a@.@." Bw_ir.Pretty.pp_program
    eliminated;

  (* 5. verify and measure *)
  let machine = Bw_machine.Machine.origin2000 in
  let before = Bw_exec.Run.simulate ~machine program in
  let after = Bw_exec.Run.simulate ~machine eliminated in
  Format.printf "traffic %.2f MB -> %.2f MB, time %.2f ms -> %.2f ms@."
    (float_of_int (Bw_machine.Timing.memory_bytes before.Bw_exec.Run.cache) /. 1e6)
    (float_of_int (Bw_machine.Timing.memory_bytes after.Bw_exec.Run.cache) /. 1e6)
    (1e3 *. Bw_exec.Run.seconds before)
    (1e3 *. Bw_exec.Run.seconds after);
  Format.printf "behaviour preserved: %b@."
    (Bw_exec.Interp.equal_observation before.Bw_exec.Run.observation
       after.Bw_exec.Run.observation)
