type engine = Greedy | Anneal | Exact

let engine_to_string = function
  | Greedy -> "greedy"
  | Anneal -> "anneal"
  | Exact -> "exact"

let engine_of_string = function
  | "greedy" -> Some Greedy
  | "anneal" -> Some Anneal
  | "exact" -> Some Exact
  | _ -> None

type config = {
  engine : engine;
  machine : Bw_machine.Machine.t;
  seed : int;
  restarts : int;
  steps : int;
  exact_limit : int;
}

let default_config ?(engine = Anneal)
    ?(machine = Bw_machine.Machine.origin2000) ?(seed = 1) () =
  { engine; machine; seed; restarts = 2; steps = 1300; exact_limit = 12 }

type stats = {
  engine : engine;
  nodes : int;
  candidates : int;
  cache_hits : int;
  plan : int list list;
  greedy_plan : int list list;
  objective : float;
  greedy_objective : float;
  traffic : float;
  greedy_traffic : float;
  input_traffic : float;
  accepted : bool;
  wall_ms : float;
}

let candidates_counter = Bw_obs.Metrics.counter "fusion.search.candidates"
let accept_counter = Bw_obs.Metrics.counter "fusion.search.accept"
let reject_counter = Bw_obs.Metrics.counter "fusion.search.reject"
let cache_hit_counter = Bw_obs.Metrics.counter "fusion.search.cache_hit"

(* ------------------------------------------------------------------ *)
(* Search context: the fusion graph plus the pricing memo tables.     *)

type ctx = {
  g : Fusion_graph.t;
  p : Bw_ir.Ast.program;
  machine : Bw_machine.Machine.t;
  stmts : Bw_ir.Ast.stmt array;
  n : int;
  prevent : bool array array;
  succ_of : int list array;  (** dependence successors per node *)
  (* Per-block analytic price, keyed on the block's member list.  [None]
     marks a block the fold fusion cannot build (infeasible).  Blocks
     recur across candidate plans far more than whole plans do, so this
     table carries most of the memoisation weight. *)
  block_memo : (string, float option) Hashtbl.t;
  plan_memo : Cost.memo;
  mutable candidates : int;
  mutable block_hits : int;
  sharers : int array array;  (** nodes sharing >=1 array, per node *)
}

(* Statements whose relative order is observable even without a data
   dependence: prints append to the output trace, reads consume the
   input stream.  The dependence graph alone would let the search
   reorder two prints of unrelated values, which changes the observation
   the validators compare, so we chain them explicitly. *)
let rec observable (s : Bw_ir.Ast.stmt) =
  match s with
  | Bw_ir.Ast.Print _ | Bw_ir.Ast.Read_input _ -> true
  | Bw_ir.Ast.Assign _ -> false
  | Bw_ir.Ast.For l -> List.exists observable l.Bw_ir.Ast.body
  | Bw_ir.Ast.If (_, t, e) -> List.exists observable t || List.exists observable e

let make_ctx ~machine p =
  let g = Fusion_graph.build p in
  let n = Fusion_graph.node_count g in
  let prevent = Array.make_matrix n n false in
  List.iter
    (fun (u, v) ->
      prevent.(u).(v) <- true;
      prevent.(v).(u) <- true)
    g.Fusion_graph.preventing;
  let succ_of =
    Array.init n (fun v -> Bw_graph.Digraph.succ g.Fusion_graph.deps v)
  in
  (* chain observable statements in program order *)
  let _ =
    List.fold_left
      (fun prev (v, s) ->
        if not (observable s) then prev
        else begin
          (match prev with
          | Some u when not (List.mem v succ_of.(u)) ->
            succ_of.(u) <- v :: succ_of.(u)
          | _ -> ());
          Some v
        end)
      None
      (List.mapi (fun v s -> (v, s)) p.Bw_ir.Ast.body)
  in
  let sharers =
    let by_array = Hashtbl.create 32 in
    Array.iteri
      (fun v node ->
        List.iter
          (fun a ->
            Hashtbl.replace by_array a
              (v :: Option.value (Hashtbl.find_opt by_array a) ~default:[]))
          node.Fusion_graph.arrays)
      g.Fusion_graph.nodes;
    let sets = Array.make n [] in
    Hashtbl.iter
      (fun _ vs ->
        List.iter
          (fun v ->
            sets.(v) <- List.filter (fun w -> w <> v) vs @ sets.(v))
          vs)
      by_array;
    Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) sets
  in
  { g;
    p;
    machine;
    stmts = Array.of_list p.Bw_ir.Ast.body;
    n;
    prevent;
    succ_of;
    block_memo = Hashtbl.create 512;
    plan_memo = Cost.memo ();
    candidates = 0;
    block_hits = 0;
    sharers }

let block_key members = String.concat "." (List.map string_of_int members)

(* Price one block: the analytic predicted traffic of a mini-program
   holding only the block's statements, fused into a single partition.
   The predictor's cross-statement reuse is only free when a scope fits
   in cache, so for out-of-cache workloads the whole-plan traffic is the
   sum of its block prices — which is what makes an additive objective
   (and therefore incremental re-pricing and a set-partition DP) sound. *)
let block_cost ctx members =
  let key = block_key members in
  match Hashtbl.find_opt ctx.block_memo key with
  | Some c ->
    ctx.block_hits <- ctx.block_hits + 1;
    Bw_obs.Metrics.incr cache_hit_counter;
    c
  | None ->
    let body = List.map (fun v -> ctx.stmts.(v)) members in
    let mini = { ctx.p with Bw_ir.Ast.body } in
    let plan = [ List.init (List.length members) (fun i -> i) ] in
    let c =
      match Cost.predicted_traffic ~machine:ctx.machine mini plan with
      | Ok t -> Some t
      | Error _ -> None
    in
    Hashtbl.add ctx.block_memo key c;
    c

(* Summed block price; [None] if any block is infeasible.  Block order
   does not matter, so move evaluation only re-prices the touched
   blocks (via the memo). *)
let price ctx blocks =
  List.fold_left
    (fun acc members ->
      match acc with
      | None -> None
      | Some total -> (
        match block_cost ctx members with
        | None -> None
        | Some c -> Some (total +. c)))
    (Some 0.0) blocks

(* Additive objective of a candidate plan. *)
let objective ctx partitions =
  ctx.candidates <- ctx.candidates + 1;
  price ctx partitions

let has_preventing ctx members =
  let rec pairs = function
    | [] -> false
    | u :: rest -> List.exists (fun v -> ctx.prevent.(u).(v)) rest || pairs rest
  in
  pairs members

(* Contract the dependence graph onto the given blocks and topologically
   order them; [None] when the contraction has a cycle.  The result is
   the execution order {!Cost.validate} accepts. *)
let topo_order ctx blocks =
  let blocks = Array.of_list blocks in
  let k = Array.length blocks in
  let block_of = Array.make ctx.n (-1) in
  Array.iteri
    (fun bi members -> List.iter (fun v -> block_of.(v) <- bi) members)
    blocks;
  let bg = Bw_graph.Digraph.create ~size_hint:k () in
  Bw_graph.Digraph.ensure_nodes bg k;
  Array.iteri
    (fun bi members ->
      List.iter
        (fun u ->
          List.iter
            (fun w ->
              if block_of.(w) <> bi then
                Bw_graph.Digraph.add_edge bg bi block_of.(w))
            ctx.succ_of.(u))
        members)
    blocks;
  match Bw_graph.Topo.sort bg with
  | None -> None
  | Some order -> Some (List.map (fun bi -> blocks.(bi)) order)

(* ------------------------------------------------------------------ *)
(* Greedy sequential min-cut                                          *)

let footprint ctx members =
  let arrays =
    List.concat_map
      (fun v -> ctx.g.Fusion_graph.nodes.(v).Fusion_graph.arrays)
      members
    |> List.sort_uniq compare
  in
  List.fold_left
    (fun acc a ->
      match Bw_ir.Ast.find_decl ctx.p a with
      | Some d -> acc +. float_of_int (Bw_ir.Ast.decl_bytes d)
      | None -> acc)
    0.0 arrays

let preventing_within ctx members =
  let rec pairs = function
    | [] -> []
    | u :: rest ->
      List.filter_map
        (fun v -> if ctx.prevent.(u).(v) then Some (u, v) else None)
        rest
      @ pairs rest
  in
  pairs members

let orient ctx u v =
  if Bw_graph.Topo.has_path ctx.g.Fusion_graph.deps u v then (v, u) else (u, v)

(* How many preventing pairs each forced bisection tries: the greedy
   baseline stays fast on 200-loop instances by sampling the heaviest
   few pairs instead of all of them (multi_partition tries every pair,
   which is quadratic in the reduction count). *)
let pair_budget = 4

(* The hyper-graph min-cut is O(E^3) and every dependence edge inside
   the cluster contributes three enforcement hyper-edges, so it is only
   affordable on small, sparse clusters; larger ones fall back to the
   positional split below. *)
let mincut_edge_budget = 150

let cluster_edges ctx members =
  let inside = Array.make ctx.n false in
  List.iter (fun v -> inside.(v) <- true) members;
  let deps =
    List.fold_left
      (fun acc u ->
        acc + List.length (List.filter (fun w -> inside.(w)) ctx.succ_of.(u)))
      0 members
  in
  let arrays =
    List.concat_map
      (fun v -> ctx.g.Fusion_graph.nodes.(v).Fusion_graph.arrays)
      members
    |> List.sort_uniq compare |> List.length
  in
  (3 * deps) + arrays

(* Cheap always-legal bisection of a cluster: members are in ascending
   statement position and top-level dependences flow forward in
   position, so every positional prefix is dependence-closed.  Pick the
   prefix boundary that separates at least one preventing pair at the
   lowest array-count cost (the same objective the min-cut optimises). *)
let positional_split ctx members pairs =
  let arr = Array.of_list members in
  let k = Array.length arr in
  let idx = Hashtbl.create k in
  Array.iteri (fun i v -> Hashtbl.add idx v i) arr;
  let separates = Array.make (max 1 (k - 1)) false in
  List.iter
    (fun (u, v) ->
      let iu = min (Hashtbl.find idx u) (Hashtbl.find idx v)
      and iv = max (Hashtbl.find idx u) (Hashtbl.find idx v) in
      for b = iu to iv - 1 do
        separates.(b) <- true
      done)
    pairs;
  let arrays_of v = ctx.g.Fusion_graph.nodes.(v).Fusion_graph.arrays in
  let cost_at b =
    (* arrays touched by prefix [0..b] plus arrays touched by the rest *)
    let prefix = Hashtbl.create 16 and suffix = Hashtbl.create 16 in
    Array.iteri
      (fun i v ->
        List.iter
          (fun a -> Hashtbl.replace (if i <= b then prefix else suffix) a ())
          (arrays_of v))
      arr;
    Hashtbl.length prefix + Hashtbl.length suffix
  in
  let best = ref None in
  for b = 0 to k - 2 do
    if separates.(b) then begin
      let c = cost_at b in
      match !best with
      | Some (bc, _) when bc <= c -> ()
      | _ -> best := Some (c, b)
    end
  done;
  let _, b = Option.get !best in
  ( Array.to_list (Array.sub arr 0 (b + 1)),
    Array.to_list (Array.sub arr (b + 1) (k - b - 1)) )

(* Split a fold-infeasible block at its longest feasible prefix; a
   single statement always prices, so this terminates. *)
let rec repair ctx members =
  if block_cost ctx members <> None then [ members ]
  else begin
    let arr = Array.of_list members in
    let k = Array.length arr in
    let rec longest j =
      if j <= 1 then 1
      else if block_cost ctx (Array.to_list (Array.sub arr 0 j)) <> None then j
      else longest (j - 1)
    in
    let j = longest (k - 1) in
    Array.to_list (Array.sub arr 0 j)
    :: repair ctx (Array.to_list (Array.sub arr j (k - j)))
  end

let greedy_plan ctx =
  let rec solve clusters done_ =
    let pending, legal =
      List.partition (fun c -> preventing_within ctx c <> []) clusters
    in
    let done_ = legal @ done_ in
    match pending with
    | [] -> done_
    | _ ->
      (* heaviest cluster first: largest distinct-array footprint,
         breaking ties on size then first member (deterministic) *)
      let weight c = (footprint ctx c, List.length c, -List.hd c) in
      let heaviest =
        List.fold_left
          (fun best c ->
            if weight c > weight best then c else best)
          (List.hd pending) (List.tl pending)
      in
      let rest = List.filter (fun c -> c != heaviest) pending in
      let pairs =
        preventing_within ctx heaviest
        |> List.sort (fun (u1, v1) (u2, v2) ->
               compare
                 (footprint ctx [ u2; v2 ], (u1, v1))
                 (footprint ctx [ u1; v1 ], (u2, v2)))
      in
      let first, second =
        if cluster_edges ctx heaviest > mincut_edge_budget then
          positional_split ctx heaviest pairs
        else begin
          let pairs = List.filteri (fun i _ -> i < pair_budget) pairs in
          let best_split =
            List.fold_left
              (fun acc (u, v) ->
                let s, t = orient ctx u v in
                let split =
                  Bandwidth_minimal.two_partition ctx.g ~within:heaviest ~s ~t
                in
                let cost =
                  Cost.bandwidth_cost ctx.g
                    [ split.Bandwidth_minimal.first;
                      split.Bandwidth_minimal.second ]
                in
                match acc with
                | Some (c, _) when c <= cost -> acc
                | _ -> Some (cost, split))
              None pairs
          in
          let split = snd (Option.get best_split) in
          (split.Bandwidth_minimal.first, split.Bandwidth_minimal.second)
        end
      in
      solve (first :: second :: rest) done_
  in
  let clusters = solve [ List.init ctx.n (fun i -> i) ] [] in
  let blocks = List.concat_map (repair ctx) clusters in
  (* deterministic block ids before contraction *)
  let blocks = List.sort compare blocks in
  match topo_order ctx blocks with
  | Some plan -> plan
  | None ->
    (* the min-cut's dependence enforcement makes this unreachable;
       fall back rather than raise inside a search *)
    List.init ctx.n (fun i -> [ i ])

(* ------------------------------------------------------------------ *)
(* Randomized-restart simulated annealing                             *)

(* State: an assignment node -> block id.  Moves rebuild only the
   touched blocks; pricing goes through the block memo. *)

let blocks_of_assignment asg n =
  let tbl = Hashtbl.create 32 in
  for v = n - 1 downto 0 do
    let b = asg.(v) in
    Hashtbl.replace tbl b (v :: (Option.value (Hashtbl.find_opt tbl b) ~default:[]))
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) tbl []
  |> List.sort compare

let assignment_of_plan plan n =
  let asg = Array.make n (-1) in
  List.iteri (fun bi members -> List.iter (fun v -> asg.(v) <- bi) members) plan;
  asg

(* Member lists of the given block ids under [asg], ascending node
   order; ids whose block is empty are dropped. *)
let blocks_of_ids ctx asg ids =
  let members_of b =
    let rec collect v acc =
      if v < 0 then acc
      else collect (v - 1) (if asg.(v) = b then v :: acc else acc)
    in
    collect (ctx.n - 1) []
  in
  List.filter_map
    (fun b -> match members_of b with [] -> None | members -> Some members)
    (List.sort_uniq compare ids)

(* Scratch space for {!acyclic}, reused across proposals so a check
   builds no graph or table.  [slot] maps a raw block id to its dense id (-1
   when unseen) and grows with the fresh ids the annealer hands out;
   everything else is indexed by node or by dense block id (< n). *)
type scratch = {
  mutable slot : int array;
  dense : int array;  (** node -> dense block id *)
  head : int array;  (** dense block -> first member, -1 terminated *)
  next : int array;  (** node -> next member of its block *)
  indeg : int array;  (** dense block -> unprocessed in-edges *)
  queue : int array;  (** Kahn work list of dense blocks *)
}

let scratch n =
  { slot = Array.make (2 * n) (-1);
    dense = Array.make n 0;
    head = Array.make n (-1);
    next = Array.make n (-1);
    indeg = Array.make n 0;
    queue = Array.make n 0 }

(* Is the dependence graph contracted onto the blocks of [asg] acyclic?
   Kahn's algorithm over dense block ids: an edge u -> w between
   different blocks is one in-edge of w's block (parallel edges are
   counted and released alike), and the contraction is acyclic iff
   every block is released. *)
let acyclic sc ctx asg =
  let n = ctx.n in
  let k = ref 0 in
  for v = 0 to n - 1 do
    let b = asg.(v) in
    if b >= Array.length sc.slot then begin
      let grown = Array.make (2 * (b + 1)) (-1) in
      Array.blit sc.slot 0 grown 0 (Array.length sc.slot);
      sc.slot <- grown
    end;
    if sc.slot.(b) < 0 then begin
      sc.slot.(b) <- !k;
      sc.head.(!k) <- -1;
      sc.indeg.(!k) <- 0;
      incr k
    end;
    sc.dense.(v) <- sc.slot.(b)
  done;
  for v = n - 1 downto 0 do
    let d = sc.dense.(v) in
    sc.slot.(asg.(v)) <- -1;
    sc.next.(v) <- sc.head.(d);
    sc.head.(d) <- v
  done;
  for u = 0 to n - 1 do
    let du = sc.dense.(u) in
    List.iter
      (fun w ->
        let dw = sc.dense.(w) in
        if dw <> du then sc.indeg.(dw) <- sc.indeg.(dw) + 1)
      ctx.succ_of.(u)
  done;
  let k = !k in
  let tail = ref 0 in
  for d = 0 to k - 1 do
    if sc.indeg.(d) = 0 then begin
      sc.queue.(!tail) <- d;
      incr tail
    end
  done;
  let released = ref 0 in
  while !released < !tail do
    let d = sc.queue.(!released) in
    incr released;
    let release w =
      let dw = sc.dense.(w) in
      if dw <> d then begin
        sc.indeg.(dw) <- sc.indeg.(dw) - 1;
        if sc.indeg.(dw) = 0 then begin
          sc.queue.(!tail) <- dw;
          incr tail
        end
      end
    in
    let u = ref sc.head.(d) in
    while !u >= 0 do
      List.iter release ctx.succ_of.(!u);
      u := sc.next.(!u)
    done
  done;
  !released = k

let anneal ctx cfg start =
  let best = ref start in
  let best_cost =
    ref (Option.value (objective ctx start) ~default:infinity)
  in
  (* temperature is relative to the average block price of the start
     state, so "one small array's worth" of regression is acceptable
     early and nothing is acceptable late *)
  let t0 = 1.0 and t_end = 0.01 in
  let sc = scratch ctx.n and saved = Array.make ctx.n 0 in
  let run_restart r init_plan =
    let rng = Random.State.make [| cfg.seed; r; 0x5ea7c4 |] in
    let asg = assignment_of_plan init_plan ctx.n in
    let next_id = ref (List.length init_plan) in
    let cur = ref (Option.value (objective ctx init_plan) ~default:infinity) in
    let scale =
      if Float.is_finite !cur && !cur > 0.0 then
        !cur /. float_of_int (List.length init_plan)
      else 1.0
    in
    for step = 0 to cfg.steps - 1 do
      let temp =
        t0 *. ((t_end /. t0) ** (float_of_int step /. float_of_int cfg.steps))
      in
      (* proposal kinds: a targeted merge walks a hyper-edge (merge the
         blocks of two loops sharing an array — the move that actually
         removes traffic), a random merge keeps the chain irreducible,
         and a node move/split (move to a fresh block) undoes bad
         agglomeration.  Weights 5:2:5. *)
      let merge_of u w =
        let bu = asg.(u) and bw = asg.(w) in
        if bu = bw then ([], fun () -> ())
        else
          ( [ bu; bw ],
            fun () ->
              for v = 0 to ctx.n - 1 do
                if asg.(v) = bw then asg.(v) <- bu
              done )
      in
      let move_to u target =
        if target = asg.(u) then ([], fun () -> ())
        else ([ asg.(u); target ], fun () -> asg.(u) <- target)
      in
      let random_sharer u =
        let sh = ctx.sharers.(u) in
        if Array.length sh = 0 then None
        else Some sh.(Random.State.int rng (Array.length sh))
      in
      let touched, apply =
        match Random.State.int rng 12 with
        | 0 | 1 | 2 -> (
          (* targeted merge along a shared array *)
          let u = Random.State.int rng ctx.n in
          match random_sharer u with
          | None -> ([], fun () -> ())
          | Some w -> merge_of u w)
        | 3 ->
          let u = Random.State.int rng ctx.n
          and w = Random.State.int rng ctx.n in
          merge_of u w
        | 4 | 5 | 6 | 7 -> (
          (* targeted node move: chase a shared array into its block —
             the move that escapes greedy's contiguous fragmentation,
             where whole-block merges are vetoed by the preventing
             reductions both blocks contain *)
          let u = Random.State.int rng ctx.n in
          match random_sharer u with
          | None -> ([], fun () -> ())
          | Some w -> move_to u asg.(w))
        | _ ->
          let u = Random.State.int rng ctx.n in
          if Random.State.bool rng then begin
            (* fresh block: splits u out of its current block *)
            incr next_id;
            move_to u !next_id
          end
          else move_to u asg.(Random.State.int rng ctx.n)
      in
      match touched with
      | [] -> ()
      | ids ->
        (* legality before price: a proposal that fuses a preventing
           pair or closes a dependence cycle is dropped without pricing
           any block, since only legal proposals reach the accept draw
           this leaves the RNG stream, and so the plan, unchanged *)
        Array.blit asg 0 saved 0 ctx.n;
        apply ();
        let after = blocks_of_ids ctx asg ids in
        let legal =
          (not (List.exists (has_preventing ctx) after)) && acyclic sc ctx asg
        in
        let priced =
          if not legal then None
          else
            match price ctx (blocks_of_ids ctx saved ids) with
            | None -> None
            | Some before_cost ->
              Option.map (fun c -> (before_cost, c)) (price ctx after)
        in
        (match priced with
        | None -> Array.blit saved 0 asg 0 ctx.n
        | Some (before_cost, after_cost) ->
          ctx.candidates <- ctx.candidates + 1;
          let delta = (after_cost -. before_cost) /. scale in
          let accept =
            delta <= 0.0 || Random.State.float rng 1.0 < exp (-.delta /. temp)
          in
          if not accept then Array.blit saved 0 asg 0 ctx.n
          else begin
            cur := !cur -. before_cost +. after_cost;
            if !cur < !best_cost -. 1e-9 then begin
              match topo_order ctx (blocks_of_assignment asg ctx.n) with
              | Some plan ->
                best := plan;
                best_cost := !cur
              | None -> ()
            end
          end)
    done
  in
  let unfused = List.init ctx.n (fun v -> [ v ]) in
  for r = 0 to cfg.restarts - 1 do
    run_restart r (if r mod 2 = 0 then start else unfused)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Exact set-partition DP (optimality oracle)                         *)

(* f(S) = cheapest partitioning of the node set S into an execution
   suffix: peel the last block B (legal, no dependence leaving B into
   S \ B), pay its price, recurse on S \ B.  Memoized on the bitmask;
   every ordered legal plan can be peeled this way, so the DP is exact
   for the additive objective. *)
let exact ctx cfg =
  if ctx.n > cfg.exact_limit then
    Error
      (Printf.sprintf "exact engine: %d nodes exceeds the limit of %d"
         ctx.n cfg.exact_limit)
  else begin
    let n = ctx.n in
    let full = (1 lsl n) - 1 in
    let prevent_mask = Array.make n 0 in
    let succ_mask = Array.make n 0 in
    for v = 0 to n - 1 do
      for w = 0 to n - 1 do
        if ctx.prevent.(v).(w) then
          prevent_mask.(v) <- prevent_mask.(v) lor (1 lsl w)
      done;
      List.iter
        (fun w -> succ_mask.(v) <- succ_mask.(v) lor (1 lsl w))
        ctx.succ_of.(v)
    done;
    let members_of mask =
      let rec go v acc =
        if v < 0 then acc
        else go (v - 1) (if mask land (1 lsl v) <> 0 then v :: acc else acc)
      in
      go (n - 1) []
    in
    let memo : (int, (float * int) option) Hashtbl.t = Hashtbl.create 1024 in
    (* price of the best partitioning of [mask]; the int is the best
       last block *)
    let rec solve mask =
      if mask = 0 then Some (0.0, 0)
      else
        match Hashtbl.find_opt memo mask with
        | Some r -> r
        | None ->
          let best = ref None in
          (* enumerate non-empty submasks of mask as candidate last blocks *)
          let b = ref mask in
          while !b <> 0 do
            let block = !b in
            let rest = mask land lnot block in
            let legal =
              let rec check m =
                if m = 0 then true
                else begin
                  let v = m land -m in
                  let vi =
                    (* log2 of the lowest set bit *)
                    let rec lg i x = if x = 1 then i else lg (i + 1) (x lsr 1) in
                    lg 0 v
                  in
                  prevent_mask.(vi) land block = 0
                  && succ_mask.(vi) land rest = 0
                  && check (m land (m - 1))
                end
              in
              check block
            in
            (if legal then
               match block_cost ctx (members_of block) with
               | None -> ()
               | Some c -> (
                 ctx.candidates <- ctx.candidates + 1;
                 match solve rest with
                 | None -> ()
                 | Some (crest, _) -> (
                   let total = c +. crest in
                   match !best with
                   | Some (bc, _) when bc <= total -> ()
                   | _ -> best := Some (total, block))));
            b := (!b - 1) land mask
          done;
          Hashtbl.add memo mask !best;
          !best
    in
    match solve full with
    | None -> Error "exact engine: no legal partitioning"
    | Some _ ->
      (* reconstruct by peeling best last blocks *)
      let rec rebuild mask acc =
        if mask = 0 then acc
        else
          match Hashtbl.find_opt memo mask with
          | Some (Some (_, block)) ->
            rebuild (mask land lnot block) (members_of block :: acc)
          | _ -> acc
      in
      Ok (rebuild full [])
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)

let full_traffic ctx plan =
  match Cost.predicted_traffic_memo ~machine:ctx.machine ~memo:ctx.plan_memo
          ctx.p plan
  with
  | Ok t -> t
  | Error _ -> infinity

let plan (cfg : config) (p : Bw_ir.Ast.program) =
  if p.Bw_ir.Ast.body = [] then Error "empty program"
  else begin
    let started = Bw_obs.Trace.now_us () in
    let ctx = make_ctx ~machine:cfg.machine p in
    Bw_obs.Trace.with_span ~cat:"fusion"
      ~attrs:
        [ ("engine", Bw_obs.Trace.Str (engine_to_string cfg.engine));
          ("nodes", Bw_obs.Trace.Int ctx.n);
          ("seed", Bw_obs.Trace.Int cfg.seed) ]
      ~result_attrs:(fun r ->
        match r with
        | Error _ -> [ ("error", Bw_obs.Trace.Str "search failed") ]
        | Ok (_, st) ->
          [ ("partitions", Bw_obs.Trace.Int (List.length st.plan));
            ("candidates", Bw_obs.Trace.Int st.candidates);
            ("cache_hits", Bw_obs.Trace.Int st.cache_hits) ])
      "fusion.search"
    @@ fun () ->
    let greedy = greedy_plan ctx in
    let chosen =
      match cfg.engine with
      | Greedy -> Ok greedy
      | Anneal -> Ok (anneal ctx cfg greedy)
      | Exact -> exact ctx cfg
    in
    match chosen with
    | Error _ as e -> e
    | Ok best -> (
      match Cost.validate ctx.g best with
      | Error reason -> Error ("search produced an invalid plan: " ^ reason)
      | Ok () ->
        let obj plan' = Option.value (objective ctx plan') ~default:infinity in
        let unfused_plan = List.init ctx.n (fun v -> [ v ]) in
        let traffic = full_traffic ctx best in
        let greedy_traffic = full_traffic ctx greedy in
        let input_traffic = full_traffic ctx unfused_plan in
        Bw_obs.Metrics.incr ~by:ctx.candidates candidates_counter;
        let stats =
          { engine = cfg.engine;
            nodes = ctx.n;
            candidates = ctx.candidates;
            cache_hits = ctx.block_hits + Cost.memo_hits ctx.plan_memo;
            plan = best;
            greedy_plan = greedy;
            objective = obj best;
            greedy_objective = obj greedy;
            traffic;
            greedy_traffic;
            input_traffic;
            accepted = false;
            wall_ms = (Bw_obs.Trace.now_us () -. started) /. 1e3 }
        in
        Ok (best, stats))
  end

let run (cfg : config) (p : Bw_ir.Ast.program) =
  match plan cfg p with
  | Error _ as e -> e
  | Ok (best, stats) ->
    (* commit only a predicted win; the caller's Guard / analytic gate
       re-checks, this keeps a declined search a visible no-op *)
    if stats.traffic > stats.input_traffic then begin
      Bw_obs.Metrics.incr reject_counter;
      Ok (p, { stats with accepted = false })
    end
    else begin
      match Bw_transform.Fuse.apply_plan p best with
      | Error _ as e -> e
      | Ok fused ->
        if
          Result.is_ok (Bw_ir.Check.check fused)
          && Bw_analysis.Preserve.lint_ok ~before:p ~after:fused
        then begin
          Bw_obs.Metrics.incr accept_counter;
          Ok (fused, { stats with accepted = true })
        end
        else begin
          Bw_obs.Metrics.incr reject_counter;
          Ok (p, { stats with accepted = false })
        end
    end

let stage (cfg : config) (p : Bw_ir.Ast.program) =
  match run cfg p with Ok (p', _) -> p' | Error _ -> p

let pp_stats ppf st =
  Format.fprintf ppf
    "fuse-search(%s): %d nodes -> %d partitions, %d candidates (%d cached), \
     %.1f ms, predicted %.2f MB -> %.2f MB"
    (engine_to_string st.engine) st.nodes (List.length st.plan) st.candidates
    st.cache_hits st.wall_ms (st.input_traffic /. 1e6) (st.traffic /. 1e6)
