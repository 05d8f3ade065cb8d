(** Graph-coloring register allocation, after Chaitin and Briggs et al. [1]
    (the allocator the paper uses: "Our compiler uses a graph-coloring
    allocator.  These allocators are known to over-spill in tight
    situations").

    Phases, each round:
    - liveness ({!Rp_opt.Liveness}), then a backward walk of each block
      from its live-out set over a sparse set of live registers;
    - interference graph, sized by [Func.nreg]: a bit matrix for
      [interferes], per-node adjacency arrays and an [int array] of
      current degrees;
    - conservative (Briggs) coalescing over the move list, merged through
      {!Rp_support.Union_find};
    - simplify from a min-heap of nodes of degree < k (lowest id first),
      with optimistic push of the cheapest [cost / (1 + degree)] node;
    - select (lowest free colour), then either done or spill-and-retry.
    Dominators and the loop forest are computed once per function: spill
    code adds no blocks.  Spill code is emitted as tagged scalar memory
    operations ([Tag.Spill]), so spills show up in the dynamic load/store
    counts exactly as the paper's experiments require (the "water" effect,
    where promotion-induced pressure makes the allocated code slower).

    There are no calling-convention constraints: the execution model gives
    every activation a private register file, so values never live across a
    call in a shared register.  Promoted values therefore "compete for
    registers on an equal footing with other values". *)

open Rp_ir
module IS = Rp_support.Smaps.Int_set

type stats = {
  mutable spilled_regs : int;
  mutable remat_regs : int;
      (** "spilled" constants rematerialized instead of stored *)
  mutable coalesced : int;
  mutable removed_copies : int;
  mutable rounds : int;
}

let zero_stats () =
  { spilled_regs = 0; remat_regs = 0; coalesced = 0; removed_copies = 0;
    rounds = 0 }

(* ------------------------------------------------------------------ *)
(* Interference graph                                                  *)
(* ------------------------------------------------------------------ *)

(** The interference graph over registers [0, n): a bit matrix answers
    [interferes], per-node adjacency arrays list neighbours, and [degree]
    counts each node's neighbours still in the graph.  A node that
    coalescing merges away leaves [present] but is not scrubbed from other
    nodes' adjacency arrays, so every walk skips absent neighbours. *)
type graph = {
  n : int;
  bits : Bytes.t;  (** bit [a * n + b] set iff [a] and [b] interfere *)
  adj : int array array;
  adj_len : int array;
  degree : int array;
  present : bool array;
}

let g_create n =
  {
    n;
    bits = Bytes.make (((n * n) + 7) / 8) '\000';
    adj = Array.make n [||];
    adj_len = Array.make n 0;
    degree = Array.make n 0;
    present = Array.make n false;
  }

let bit_index g a b = (a * g.n) + b

let interferes g a b =
  let i = bit_index g a b in
  Char.code (Bytes.get g.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit g a b =
  let i = bit_index g a b in
  let byte = Char.code (Bytes.get g.bits (i lsr 3)) in
  Bytes.set g.bits (i lsr 3) (Char.unsafe_chr (byte lor (1 lsl (i land 7))))

let push_adj g a b =
  let len = g.adj_len.(a) in
  if len = Array.length g.adj.(a) then begin
    let grown = Array.make (max 8 (2 * len)) 0 in
    Array.blit g.adj.(a) 0 grown 0 len;
    g.adj.(a) <- grown
  end;
  g.adj.(a).(len) <- b;
  g.adj_len.(a) <- len + 1

(** Record a new edge between two present, non-interfering nodes. *)
let link g a b =
  set_bit g a b;
  set_bit g b a;
  push_adj g a b;
  push_adj g b a;
  g.degree.(a) <- g.degree.(a) + 1;
  g.degree.(b) <- g.degree.(b) + 1

let g_add_edge g a b =
  if a <> b then begin
    g.present.(a) <- true;
    g.present.(b) <- true;
    if not (interferes g a b) then link g a b
  end

let iter_neighbors g a fn =
  let row = g.adj.(a) in
  for i = 0 to g.adj_len.(a) - 1 do
    let b = row.(i) in
    if g.present.(b) then fn b
  done

(** The registers live at one program point, with O(1) add and remove and
    iteration over members only (a sparse set over [0, n)). *)
module Live = struct
  type t = { elt : int array; idx : int array; mutable size : int }

  let create n = { elt = Array.make n 0; idx = Array.make n 0; size = 0 }

  let mem s r =
    let i = s.idx.(r) in
    i < s.size && s.elt.(i) = r

  let add s r =
    if not (mem s r) then begin
      s.elt.(s.size) <- r;
      s.idx.(r) <- s.size;
      s.size <- s.size + 1
    end

  let remove s r =
    if mem s r then begin
      let i = s.idx.(r) and last = s.elt.(s.size - 1) in
      s.elt.(i) <- last;
      s.idx.(last) <- i;
      s.size <- s.size - 1
    end

  let clear s = s.size <- 0

  let iter fn s =
    for i = 0 to s.size - 1 do
      fn s.elt.(i)
    done
end

(** Build the interference graph plus spill-cost estimates.  A definition
    interferes with everything live after it; for a copy, the source is
    excluded (the classic move exception enabling coalescing).  Each block
    is walked backward from its live-out set.  [cost.(r)] is 0 for a
    register no instruction mentions; every mention weighs at least 1.
    [moves] lists copies last-first. *)
let build (f : Func.t) (forest : Rp_cfg.Loops.forest) =
  let n = f.Func.nreg in
  let live = Rp_opt.Liveness.compute f in
  let g = g_create n in
  let cost = Array.make n 0. in
  let moves = ref [] in
  let mention r w =
    g.present.(r) <- true;
    cost.(r) <- cost.(r) +. w
  in
  (* every register that appears is a node *)
  List.iter (fun p -> g.present.(p) <- true) f.Func.params;
  let cur = Live.create n in
  Func.iter_blocks
    (fun (b : Block.t) ->
      let depth =
        match Hashtbl.find_opt forest.Rp_cfg.Loops.innermost b.Block.label with
        | Some l -> l.Rp_cfg.Loops.depth
        | None -> 0
      in
      let w = Float.pow 10. (float_of_int (min depth 6)) in
      Live.clear cur;
      IS.iter (Live.add cur) (Rp_opt.Liveness.live_out live b.Block.label);
      (* terminator reads weigh on cost; they make a node only via an edge *)
      List.iter
        (fun r ->
          Live.add cur r;
          cost.(r) <- cost.(r) +. w)
        (Instr.term_uses b.Block.term);
      let block_moves = ref [] in
      List.iter
        (fun i ->
          let uses = Instr.uses i and defs = Instr.defs i in
          List.iter (fun r -> mention r w) uses;
          List.iter (fun d -> mention d w) defs;
          (* [cur] holds the registers live after [i] *)
          (match i with
          | Instr.Copy (d, s) ->
            block_moves := (d, s) :: !block_moves;
            Live.iter (fun l -> if l <> s then g_add_edge g d l) cur
          | _ -> List.iter (fun d -> Live.iter (g_add_edge g d) cur) defs);
          List.iter (Live.remove cur) defs;
          List.iter (Live.add cur) uses)
        (List.rev b.Block.instrs);
      moves := List.rev_append !block_moves !moves)
    f;
  (* parameters are all live simultaneously at entry *)
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
      List.iter (fun q -> g_add_edge g p q) rest;
      pairs rest
  in
  pairs f.Func.params;
  let entry_live = Rp_opt.Liveness.live_in live f.Func.entry in
  List.iter
    (fun p -> IS.iter (fun l -> g_add_edge g p l) entry_live)
    f.Func.params;
  (g, cost, !moves)

(* ------------------------------------------------------------------ *)
(* Coalescing                                                          *)
(* ------------------------------------------------------------------ *)

(** Briggs-conservative coalescing on the interference graph, sweeping
    [moves] in order until a sweep merges nothing.  Returns the alias map
    (register -> representative). *)
let coalesce (g : graph) (moves : (Instr.reg * Instr.reg) list) ~k stats =
  let uf = Rp_support.Union_find.create (max g.n 1) in
  let resolve r = Rp_support.Union_find.find uf r in
  (* Briggs: fewer than k neighbours of the merged node have degree >= k *)
  let conservative d s =
    let significant = ref 0 in
    iter_neighbors g d (fun m -> if g.degree.(m) >= k then incr significant);
    iter_neighbors g s (fun m ->
        if g.degree.(m) >= k && not (interferes g d m) then incr significant);
    !significant < k
  in
  let merge root other =
    iter_neighbors g other (fun m ->
        (* [m] loses [other] and gains [root] unless it already had it *)
        g.degree.(m) <- g.degree.(m) - 1;
        if not (interferes g root m) then link g root m);
    g.present.(other) <- false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d, s) ->
        let d = resolve d and s = resolve s in
        if d <> s && g.present.(d) && g.present.(s)
           && (not (interferes g d s)) && conservative d s
        then begin
          let root = Rp_support.Union_find.union uf d s in
          merge root (if root = d then s else d);
          stats.coalesced <- stats.coalesced + 1;
          changed := true
        end)
      moves
  done;
  resolve

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

(** A binary min-heap of register ids: simplify's worklist of nodes whose
    current degree is below k. *)
module Heap = struct
  type t = { a : int array; mutable len : int }

  let create n = { a = Array.make (max n 1) 0; len = 0 }

  let push h x =
    let rec up i =
      let parent = (i - 1) / 2 in
      if i > 0 && h.a.(parent) > x then begin
        h.a.(i) <- h.a.(parent);
        up parent
      end
      else h.a.(i) <- x
    in
    up h.len;
    h.len <- h.len + 1

  let pop h =
    let top = h.a.(0) in
    h.len <- h.len - 1;
    let x = h.a.(h.len) in
    let rec down i =
      let l = (2 * i) + 1 in
      let c = if l + 1 < h.len && h.a.(l + 1) < h.a.(l) then l + 1 else l in
      if c < h.len && h.a.(c) < x then begin
        h.a.(i) <- h.a.(c);
        down c
      end
      else h.a.(i) <- x
    in
    if h.len > 0 then down 0;
    top
end

(** Simplify + optimistic select.  [cost.(r)] is the spill cost of node
    [r].  Returns [Ok colour] (colour per register, [-1] for non-nodes) or
    [Error spilled] marking the nodes chosen for spilling. *)
let color (g : graph) (cost : float array) ~k :
    (int array, bool array) result =
  let n = g.n in
  let degree = Array.copy g.degree in
  (* in the graph and not yet on the stack *)
  let left = Array.copy g.present in
  let remaining = ref 0 in
  let low = Heap.create n in
  for r = 0 to n - 1 do
    if left.(r) then begin
      incr remaining;
      if degree.(r) < k then Heap.push low r
    end
  done;
  let stack = ref [] in
  let remove r =
    left.(r) <- false;
    decr remaining;
    stack := r :: !stack;
    iter_neighbors g r (fun m ->
        if left.(m) then begin
          degree.(m) <- degree.(m) - 1;
          (* degrees only fall, so a node enters the worklist once *)
          if degree.(m) = k - 1 then Heap.push low m
        end)
  in
  while !remaining > 0 do
    (* the lowest-numbered trivially colorable node, else the cheapest
       spill candidate *)
    if low.Heap.len > 0 then remove (Heap.pop low)
    else begin
      (* spill metric: cost / (1 + degree); lowest goes first (optimistic),
         ties to the lowest id *)
      let victim = ref (-1) and best = ref infinity in
      for r = 0 to n - 1 do
        if left.(r) then begin
          if !victim < 0 then victim := r;
          let m = cost.(r) /. float_of_int (1 + degree.(r)) in
          if m < !best then begin
            victim := r;
            best := m
          end
        end
      done;
      remove !victim
    end
  done;
  (* select, over the post-coalescing graph *)
  let colour = Array.make n (-1) in
  let spilled = Array.make n false in
  (* [taken.(c) = r] while selecting [r] means a neighbour holds colour c *)
  let taken = Array.make k (-1) in
  List.iter
    (fun r ->
      iter_neighbors g r (fun m ->
          let c = colour.(m) in
          if c >= 0 then taken.(c) <- r);
      let c = ref 0 in
      while !c < k && taken.(!c) = r do
        incr c
      done;
      if !c < k then colour.(r) <- !c else spilled.(r) <- true)
    !stack;
  if Array.exists Fun.id spilled then Error spilled else Ok colour

(* ------------------------------------------------------------------ *)
(* Spill code                                                          *)
(* ------------------------------------------------------------------ *)

(** Insert spill code for each register [r] with [victims.(r)]: a fresh
    spill tag per register, a store after every definition, a load into a
    fresh temporary before every use. *)
let insert_spill_code (p : Program.t) (f : Func.t) (victims : bool array)
    stats =
  (* rematerialization: a victim whose single definition materializes a
     constant or an address is recomputed at each use instead of being
     stored to a stack slot — the classic Chaitin-Briggs refinement, and
     essential here so that constants hoisted by LICM do not turn register
     pressure into phantom memory traffic *)
  let def_count = Array.make (Array.length victims) 0 in
  let def_instr = Array.make (Array.length victims) None in
  List.iter (fun r -> def_count.(r) <- 1) f.Func.params;
  Func.iter_instrs
    (fun _ i ->
      List.iter
        (fun d ->
          def_count.(d) <- def_count.(d) + 1;
          def_instr.(d) <- Some i)
        (Instr.defs i))
    f;
  let remat : (Instr.reg, Instr.t) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun r victim ->
      if victim && def_count.(r) = 1 then
        match def_instr.(r) with
        | Some ((Instr.Loadi _ | Instr.Loada _ | Instr.Loadfp _) as i) ->
          Hashtbl.replace remat r i;
          stats.remat_regs <- stats.remat_regs + 1
        | _ -> ())
    victims;
  let slot : (Instr.reg, Tag.t) Hashtbl.t = Hashtbl.create 8 in
  let slot_of r =
    match Hashtbl.find_opt slot r with
    | Some t -> t
    | None ->
      let t =
        Tag.Table.fresh p.Program.tags
          ~name:(Printf.sprintf "%s.spill.r%d" f.Func.name r)
          ~storage:(Tag.Spill f.Func.name) ~size:1 ~is_scalar:true ()
      in
      Hashtbl.replace slot r t;
      f.Func.local_tags <- f.Func.local_tags @ [ t ];
      stats.spilled_regs <- stats.spilled_regs + 1;
      t
  in
  Func.iter_blocks
    (fun (b : Block.t) ->
      let out = ref [] in
      List.iter
        (fun i ->
          (* loads before uses *)
          let remap = Hashtbl.create 4 in
          List.iter
            (fun u ->
              if victims.(u) && not (Hashtbl.mem remap u) then begin
                let tmp = Func.fresh_reg f in
                Hashtbl.replace remap u tmp;
                match Hashtbl.find_opt remat u with
                | Some def ->
                  out := Instr.map_defs (fun _ -> tmp) def :: !out
                | None -> out := Instr.Loads (tmp, slot_of u) :: !out
              end)
            (Instr.uses i);
          let i =
            if Hashtbl.length remap = 0 then i
            else
              Instr.map_uses
                (fun u -> Option.value ~default:u (Hashtbl.find_opt remap u))
                i
          in
          (* defs keep their register but the value is stored immediately;
             use a fresh def register to shorten the live range *)
          let stores = ref [] in
          let keep = ref true in
          let i =
            match Instr.defs i with
            | [ d ] when Hashtbl.mem remat d ->
              (* the rematerialized value is recomputed at each use; its
                 original (pure) definition is now dead and must go, or the
                 register would resurface unchanged every round *)
              keep := false;
              i
            | [ d ] when victims.(d) ->
              let tmp = Func.fresh_reg f in
              stores := [ Instr.Stores (slot_of d, tmp) ];
              Instr.map_defs (fun _ -> tmp) i
            | _ -> i
          in
          if !keep then out := List.rev_append (i :: !stores) !out)
        b.Block.instrs;
      b.Block.instrs <- List.rev !out;
      (* spilled registers read by the terminator *)
      let tuses = Instr.term_uses b.Block.term in
      let remap = Hashtbl.create 2 in
      List.iter
        (fun u ->
          if victims.(u) && not (Hashtbl.mem remap u) then begin
            let tmp = Func.fresh_reg f in
            Hashtbl.replace remap u tmp;
            let fill =
              match Hashtbl.find_opt remat u with
              | Some def -> Instr.map_defs (fun _ -> tmp) def
              | None -> Instr.Loads (tmp, slot_of u)
            in
            b.Block.instrs <- b.Block.instrs @ [ fill ]
          end)
        tuses;
      if Hashtbl.length remap > 0 then
        b.Block.term <-
          Instr.term_map_uses
            (fun u -> Option.value ~default:u (Hashtbl.find_opt remap u))
            b.Block.term)
    f;
  (* spilled parameters: store the incoming value at function entry *)
  let entry = Func.entry_block f in
  List.iter
    (fun prm ->
      if victims.(prm) then
        entry.Block.instrs <- Instr.Stores (slot_of prm, prm) :: entry.Block.instrs)
    f.Func.params

(* ------------------------------------------------------------------ *)
(* Rewrite with colors                                                 *)
(* ------------------------------------------------------------------ *)

let apply_coloring (f : Func.t) resolve (colour : int array) ~k stats =
  let color_of r =
    match colour.(resolve r) with
    | -1 ->
      (* a register that never appears live anywhere (dead def with no
         uses): give it color 0 *)
      0
    | c -> c
  in
  Func.iter_blocks
    (fun (b : Block.t) ->
      b.Block.instrs <-
        List.filter_map
          (fun i ->
            let i' = Instr.map_regs color_of i in
            match i' with
            | Instr.Copy (d, s) when d = s ->
              stats.removed_copies <- stats.removed_copies + 1;
              None
            | _ -> Some i')
          b.Block.instrs;
      b.Block.term <- Instr.term_map_uses color_of b.Block.term)
    f;
  f.Func.params <- List.map color_of f.Func.params;
  f.Func.nreg <- k

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** Allocate [f] onto [k] physical registers. *)
let alloc_func (p : Program.t) ~k (f : Func.t) : stats =
  if k < 4 then invalid_arg "Regalloc: need at least 4 registers";
  let stats = zero_stats () in
  (* spill code adds instructions, never blocks, so one loop forest serves
     every round *)
  let forest = Rp_cfg.Loops.analyze f (Rp_cfg.Dominators.compute f) in
  (* every register numbered from here on is a spill temporary *)
  let first_temp = f.Func.nreg in
  let rec round nth =
    if nth > 64 then failwith "Regalloc: did not converge";
    stats.rounds <- stats.rounds + 1;
    let (g, cost, moves) = build f forest in
    let resolve = coalesce g moves ~k stats in
    (* fold costs through coalescing aliases; spill temporaries must never
       look cheap, or they would be re-spilled forever *)
    let merged = Array.make g.n 0. in
    Array.iteri
      (fun r c ->
        if c > 0. then begin
          let c = if r >= first_temp then infinity else c in
          let r = resolve r in
          merged.(r) <- merged.(r) +. c
        end)
      cost;
    (* a node no instruction mentions (an unused parameter) weighs 1 *)
    let merged = Array.map (fun c -> if c > 0. then c else 1.0) merged in
    match color g merged ~k with
    | Ok colour -> apply_coloring f resolve colour ~k stats
    | Error spilled ->
      (* spill code rewrites registers as the code names them, so every
         register coalesced into a spilled node is a victim *)
      let victims = Array.make g.n false in
      let mark r = if spilled.(resolve r) then victims.(r) <- true in
      Func.iter_blocks
        (fun (b : Block.t) ->
          List.iter
            (fun i ->
              List.iter mark (Instr.uses i);
              List.iter mark (Instr.defs i))
            b.Block.instrs;
          List.iter mark (Instr.term_uses b.Block.term))
        f;
      List.iter mark f.Func.params;
      insert_spill_code p f victims stats;
      round (nth + 1)
  in
  round 1;
  stats

(** Allocate every function in the program. *)
let alloc_program ?(k = 24) (p : Program.t) : stats =
  let total = zero_stats () in
  Program.iter_funcs
    (fun f ->
      let s = alloc_func p ~k f in
      total.spilled_regs <- total.spilled_regs + s.spilled_regs;
      total.remat_regs <- total.remat_regs + s.remat_regs;
      total.coalesced <- total.coalesced + s.coalesced;
      total.removed_copies <- total.removed_copies + s.removed_copies;
      total.rounds <- total.rounds + s.rounds)
    p;
  total
