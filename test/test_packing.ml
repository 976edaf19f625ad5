open Bw_workloads
open Bw_transform

let check = Alcotest.check
let bool = Alcotest.bool

let spec =
  { Packing.index_arrays = Irregular.index_arrays;
    Packing.data_arrays = Irregular.data_arrays }

let traffic machine p =
  Bw_machine.Timing.memory_bytes
    (Bw_exec.Run.simulate ~machine p).Bw_exec.Run.cache

(* a machine whose cache is much smaller than the particle arrays, so
   locality matters *)
let tiny_cache =
  { Bw_machine.Machine.origin2000 with
    Bw_machine.Machine.name = "tiny";
    caches =
      [ { Bw_machine.Cache.size_bytes = 4096; line_bytes = 32; associativity = 2 };
        { Bw_machine.Cache.size_bytes = 32 * 1024;
          line_bytes = 128;
          associativity = 2 } ] }

let test_pack_preserves_semantics () =
  let p = Irregular.interactions ~particles:300 ~pairs:600 ~sweeps:2 in
  match Packing.pack p spec with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    let o1 = Bw_exec.Interp.run p and o2 = Bw_exec.Interp.run p' in
    check bool "bit-identical (packing only moves data)" true
      (Bw_exec.Interp.equal_observation o1 o2)

let test_group_preserves_values_closely () =
  let p = Irregular.interactions ~particles:300 ~pairs:600 ~sweeps:2 in
  match Packing.group p spec ~by:"idx1" with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    let o1 = Bw_exec.Interp.run p and o2 = Bw_exec.Interp.run p' in
    check bool "equal up to reassociation" true
      (Bw_exec.Interp.close_observation ~tol:1e-9 o1 o2)

let test_group_then_pack_compose () =
  let p = Irregular.interactions ~particles:200 ~pairs:500 ~sweeps:1 in
  let grouped =
    match Packing.group p spec ~by:"idx1" with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  (* after grouping, the index arrays are the sorted_ versions *)
  let spec' =
    { spec with
      Packing.index_arrays =
        List.map (fun a -> "sorted_" ^ a) Irregular.index_arrays }
  in
  match Packing.pack grouped spec' with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    let o1 = Bw_exec.Interp.run p and o2 = Bw_exec.Interp.run p' in
    check bool "composition sound" true
      (Bw_exec.Interp.close_observation ~tol:1e-9 o1 o2)

let test_pack_improves_locality () =
  (* first-touch packing densifies the ~touched subset of particles and
     the sweeps amortise the prologue *)
  let p = Irregular.interactions ~particles:20_000 ~pairs:8_000 ~sweeps:8 in
  match Packing.pack p spec with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    let before = traffic tiny_cache p and after = traffic tiny_cache p' in
    check bool
      (Printf.sprintf "traffic %d -> %d" before after)
      true
      (float_of_int after < 0.9 *. float_of_int before)

let test_group_improves_locality () =
  let p = Irregular.interactions ~particles:20_000 ~pairs:8_000 ~sweeps:8 in
  match Packing.group p spec ~by:"idx1" with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    let before = traffic tiny_cache p and after = traffic tiny_cache p' in
    check bool
      (Printf.sprintf "traffic %d -> %d" before after)
      true
      (float_of_int after < 0.95 *. float_of_int before)

let test_pack_rejects_direct_access () =
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program direct
        integer idx[10] = linear(1.0, 0.5)
        real x[20] = hash(1)
        real s
        live_out s
        for k = 1, 10
          s = s + x[idx[k]]
        end for
        for i = 1, 20
          s = s + x[i]
        end for
      end
      |}
  in
  match
    Packing.pack p
      { Packing.index_arrays = [ "idx" ]; Packing.data_arrays = [ "x" ] }
  with
  | Ok _ -> Alcotest.fail "expected rejection (direct access to x)"
  | Error _ -> ()

let test_pack_rejects_index_rewrite () =
  let p =
    Bw_lang.Parse.parse_program_exn
      {|
      program rewrite
        integer idx[10] = linear(1.0, 0.5)
        real x[20] = hash(1)
        real s
        live_out s
        for k = 1, 10
          s = s + x[idx[k]]
          idx[k] = idx[k] + 1
        end for
      end
      |}
  in
  match
    Packing.pack p
      { Packing.index_arrays = [ "idx" ]; Packing.data_arrays = [ "x" ] }
  with
  | Ok _ -> Alcotest.fail "expected rejection (index rewritten)"
  | Error _ -> ()

let test_group_unknown_key () =
  let p = Irregular.interactions ~particles:50 ~pairs:60 ~sweeps:1 in
  match Packing.group p spec ~by:"ghost" with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let suites =
  [ ( "transform.packing",
      [ Alcotest.test_case "pack preserves semantics" `Quick test_pack_preserves_semantics;
        Alcotest.test_case "group preserves values" `Quick test_group_preserves_values_closely;
        Alcotest.test_case "group + pack compose" `Quick test_group_then_pack_compose;
        Alcotest.test_case "pack improves locality" `Slow test_pack_improves_locality;
        Alcotest.test_case "group improves locality" `Slow test_group_improves_locality;
        Alcotest.test_case "rejects direct access" `Quick test_pack_rejects_direct_access;
        Alcotest.test_case "rejects index rewrite" `Quick test_pack_rejects_index_rewrite;
        Alcotest.test_case "rejects unknown key" `Quick test_group_unknown_key ] )
  ]
