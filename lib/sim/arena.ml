module Graph = Lipsin_topology.Graph
module Fastpath = Lipsin_forwarding.Fastpath
module Bitsliced = Lipsin_forwarding.Bitsliced
module Node_engine = Lipsin_forwarding.Node_engine
module Obs = Lipsin_obs.Obs

(* Recycled per-publication delivery scratch.  Every array is sized once
   from the topology and reused across publications: delivery-set and
   seen-link bitmaps are reset in O(touched) via the touched stacks, the
   BFS frontier is a flat ring (each link is traversed at most once in
   Expand_once mode, so [link_count + 1] slots bound it), and compiled
   engines are pinned per node (all up front by [warm], or each on its
   first visit) so the steady-state loop never consults the Net's lazy
   caches.  Matched stitch entries land in recycled hit buffers,
   sized at pin time from the pinned engines' stitch counts.  The
   result: [deliver] is a certified [@lipsin.noalloc] root — zero minor
   words per publication in steady state.  A node's first visit (which
   compiles and pins it) and a sampled publication (which additionally
   records one trace event per dequeued node) are the only branches
   that allocate. *)

type t = {
  net : Net.t;
  graph : Graph.t;
  n_nodes : int;
  n_links : int;
  (* pinned compiled engines; [warm] populates, [prepare] revalidates *)
  fps : Fastpath.t option array;
  bits : Bitsliced.t option array;
  use_bits : bool array;
  mutable warm_code : int;  (* 0 cold, 1 `Fast, 2 `Bitsliced, 3 `Auto *)
  mutable warm_generation : int;
  in_degree : int array;
  hit_bound : int array;
      (* per node: pinned stitch entries * (in-degree + 1), the most
         hits its dequeues can add to one expand-once delivery *)
  mutable hit_cap : int;  (* sum of [hit_bound] *)
  (* recycled delivery set: reached bitmap + touched stack + the depth
     at which each node was first reached (latency histogram feed) *)
  reached : bool array;
  touched_nodes : int array;
  reach_depth : int array;
  mutable n_reached : int;
  (* recycled seen-link bitmap (Expand_once dedup) + touched stack *)
  seen_link : bool array;
  touched_links : int array;
  mutable n_seen : int;
  (* intended-tree bitmaps; [set_tree] swaps them between publications *)
  on_tree : bool array;
  tree_traversed : bool array;
  mutable tree : Graph.link list;
  (* flat BFS ring: (node, dense in-link index | -1, depth) *)
  q_node : int array;
  q_in : int array;
  q_depth : int array;
  mutable q_head : int;
  mutable q_tail : int;
  (* per-publication tallies, mirroring Run.deliver's counters *)
  mutable link_traversals : int;
  mutable false_positives : int;
  mutable membership_tests : int;
  mutable fill_drops : int;
  mutable loop_drops : int;
  mutable local_deliveries : int;
  mutable deliveries : int;
  mutable over_delivery : int;
  (* matched stitch entries, in dequeue order: (node, partition, next) *)
  mutable hit_node : int array;
  mutable hit_partition : int array;
  mutable hit_next : int array;
  mutable n_hits : int;
}

let create net =
  let graph = Net.graph net in
  let n_nodes = Graph.node_count graph in
  let n_links = Graph.link_count graph in
  let in_degree = Array.make n_nodes 0 in
  Array.iter
    (fun l -> in_degree.(l.Graph.dst) <- in_degree.(l.Graph.dst) + 1)
    (Graph.links graph);
  {
    net;
    graph;
    n_nodes;
    n_links;
    fps = Array.make n_nodes None;
    bits = Array.make n_nodes None;
    use_bits = Array.make n_nodes false;
    warm_code = 0;
    warm_generation = -1;
    in_degree;
    hit_bound = Array.make n_nodes 0;
    hit_cap = 0;
    reached = Array.make n_nodes false;
    touched_nodes = Array.make n_nodes 0;
    reach_depth = Array.make n_nodes 0;
    n_reached = 0;
    seen_link = Array.make (max 1 n_links) false;
    touched_links = Array.make (max 1 n_links) 0;
    n_seen = 0;
    on_tree = Array.make (max 1 n_links) false;
    tree_traversed = Array.make (max 1 n_links) false;
    tree = [];
    q_node = Array.make (n_links + 1) 0;
    q_in = Array.make (n_links + 1) 0;
    q_depth = Array.make (n_links + 1) 0;
    q_head = 0;
    q_tail = 0;
    link_traversals = 0;
    false_positives = 0;
    membership_tests = 0;
    fill_drops = 0;
    loop_drops = 0;
    local_deliveries = 0;
    deliveries = 0;
    over_delivery = 0;
    hit_node = [||];
    hit_partition = [||];
    hit_next = [||];
    n_hits = 0;
  }

let net a = a.net

let code_of_engine = function `Fast -> 1 | `Bitsliced -> 2 | `Auto -> 3

(* Pin node [v]'s current compiled engine (of the kind [use_bits]
   already chose) and account its stitch entries in the hit bound. *)
let pin a v =
  let n_stitch =
    if a.use_bits.(v) then begin
      let b = Net.bitsliced a.net v in
      a.bits.(v) <- Some b;
      a.fps.(v) <- None;
      Bitsliced.stitch_count b
    end
    else begin
      let f = Net.fastpath a.net v in
      a.fps.(v) <- Some f;
      a.bits.(v) <- None;
      Fastpath.stitch_count f
    end
  in
  let bound = n_stitch * (a.in_degree.(v) + 1) in
  a.hit_cap <- a.hit_cap - a.hit_bound.(v) + bound;
  a.hit_bound.(v) <- bound

let[@lipsin.noalloc] pinned a v =
  if Array.get a.use_bits v then
    match Array.get a.bits v with None -> false | Some _ -> true
  else match Array.get a.fps v with None -> false | Some _ -> true

(* The hit buffers always hold [hit_cap] entries, so the kernel never
   checks capacity; growing keeps the hits already collected (a node
   pinned mid-delivery grows them). *)
let fit_hits a =
  if a.hit_cap > Array.length a.hit_node then begin
    let cap = max a.hit_cap (2 * Array.length a.hit_node) in
    let grow b =
      let b' = Array.make cap 0 in
      Array.blit b 0 b' 0 a.n_hits;
      b'
    in
    a.hit_node <- grow a.hit_node;
    a.hit_partition <- grow a.hit_partition;
    a.hit_next <- grow a.hit_next
  end

(* Choose each node's engine kind for [engine] and unpin every node;
   nodes then pin on their first visit. *)
let select a engine =
  let g = a.graph in
  for v = 0 to a.n_nodes - 1 do
    a.use_bits.(v) <-
      (match engine with
      | `Bitsliced -> true
      | `Fast -> false
      | `Auto -> Graph.out_degree g v >= Bitsliced.auto_threshold);
    a.fps.(v) <- None;
    a.bits.(v) <- None;
    a.hit_bound.(v) <- 0
  done;
  a.hit_cap <- 0;
  a.warm_code <- code_of_engine engine;
  a.warm_generation <- Net.generation a.net

(* Pin every node's compiled engine up front: one batch of compiles per
   engine choice instead of a compile on a node's first visit — the
   compile-amortisation BENCH_PR6 asked for. *)
let warm a engine =
  select a engine;
  for v = 0 to a.n_nodes - 1 do
    pin a v
  done;
  fit_hits a

let repin a v = if pinned a v then pin a v

(* Same engine choice, newer Net: re-pin just the pinned nodes the
   Net's change log names (a link flap or stitch patch touches one
   node), keeping each node's [use_bits]; check every node when the log
   no longer reaches back. *)
let prepare a engine =
  if a.warm_code <> code_of_engine engine then select a engine
  else if a.warm_generation <> Net.generation a.net then begin
    if not (Net.changed_since a.net a.warm_generation (repin a)) then
      for v = 0 to a.n_nodes - 1 do
        repin a v
      done;
    fit_hits a;
    a.warm_generation <- Net.generation a.net
  end

(* Swapping the intended tree clears the previous tree's bits; the
   common soak case (same physical tree object) is free.
   [tree_traversed] needs no sweep here: only traversed links are ever
   set, and [reset] clears exactly those. *)
(* Tupled-looking (uncurried) helpers: a trailing [function] would be
   a nested lambda in the typed tree, which alloccheck counts as a
   closure allocation under a noalloc root. *)
let rec clear_marks marks links =
  match links with
  | [] -> ()
  | l :: rest ->
    Array.set marks l.Graph.index false;
    clear_marks marks rest

let rec set_marks marks links =
  match links with
  | [] -> ()
  | l :: rest ->
    Array.set marks l.Graph.index true;
    set_marks marks rest

let[@lipsin.noalloc] set_tree a tree =
  if not (tree == a.tree) then begin
    clear_marks a.on_tree a.tree;
    set_marks a.on_tree tree;
    a.tree <- tree
  end

let[@lipsin.noalloc] reset a =
  let tn = a.touched_nodes in
  let r = a.reached in
  for i = 0 to a.n_reached - 1 do
    Array.set r (Array.get tn i) false
  done;
  a.n_reached <- 0;
  let tl = a.touched_links in
  let s = a.seen_link in
  let tt = a.tree_traversed in
  for i = 0 to a.n_seen - 1 do
    let li = Array.get tl i in
    Array.set s li false;
    Array.set tt li false
  done;
  a.n_seen <- 0;
  a.q_head <- 0;
  a.q_tail <- 0;
  a.link_traversals <- 0;
  a.false_positives <- 0;
  a.membership_tests <- 0;
  a.fill_drops <- 0;
  a.loop_drops <- 0;
  a.local_deliveries <- 0;
  a.deliveries <- 0;
  a.over_delivery <- 0;
  a.n_hits <- 0

(* One admitted copy on the link with dense index [li] towards [dst],
   decided at hop [depth] — the recycled mirror of Run.deliver's
   [propagate], false-positive accounting included (charged per match,
   dedup or not, exactly like the allocating path). *)
let[@lipsin.noalloc] propagate a li dst depth =
  if not (Array.get a.on_tree li) then
    a.false_positives <- a.false_positives + 1;
  if not (Array.get a.seen_link li) then begin
    Array.set a.seen_link li true;
    Array.set a.touched_links a.n_seen li;
    a.n_seen <- a.n_seen + 1;
    a.link_traversals <- a.link_traversals + 1;
    if Array.get a.on_tree li then Array.set a.tree_traversed li true
    else a.over_delivery <- a.over_delivery + 1;
    if not (Array.get a.reached dst) then begin
      Array.set a.reached dst true;
      Array.set a.touched_nodes a.n_reached dst;
      Array.set a.reach_depth a.n_reached (depth + 1);
      a.n_reached <- a.n_reached + 1;
      a.deliveries <- a.deliveries + 1
    end;
    let t = a.q_tail in
    Array.set a.q_node t dst;
    Array.set a.q_in t li;
    Array.set a.q_depth t (depth + 1);
    a.q_tail <- t + 1
  end

let trace_kind = function
  | None -> Obs.Trace.Hop
  | Some Node_engine.Fill_limit_exceeded -> Obs.Trace.Drop_fill
  | Some Node_engine.Loop_detected -> Obs.Trace.Drop_loop
  | Some Node_engine.Bad_table -> Obs.Trace.Drop_bad_table

(* One trace event for the node just decided, with the fields
   Run.deliver records: the links this node's fan-out enqueued are the
   ring slice [q_in.(q0) .. q_in.(q_tail - 1)], and it raised a false
   positive iff the tally moved past [fp0]. *)
let record_hop a ~packet ~table ~stage ~engine ~drop ~loop_suspected
    ~deliver_local ~node ~in_link ~depth ~q0 ~fp0 =
  Obs.Trace.record (Obs.Trace.local ()) ~table ~engine ~stage ~depth ~packet
    ~node ~in_link ~kind:(trace_kind drop)
    ~out_links:(Array.sub a.q_in q0 (a.q_tail - q0))
    ~false_positive:(a.false_positives > fp0)
    ~loop_suspected ~deliver_local ~ttl_expired:0

(* One matched stitch entry, appended to the hit buffers ([pin] sized
   them for every dequeue this delivery can make). *)
let[@lipsin.noalloc] add_hit a node partition next =
  let k = a.n_hits in
  Array.set a.hit_node k node;
  Array.set a.hit_partition k partition;
  Array.set a.hit_next k next;
  a.n_hits <- k + 1

(* Expand-once BFS over the pinned compiled engines, collecting stitch
   hits in dequeue order (Run.deliver's [stitch_hits] order).  [packet]
   is the sampled publication id, or -1 when not traced; [stage] tags
   its trace events. *)
let[@lipsin.noalloc] run_queue a ~table ~zfilter ~packet ~stage =
  while a.q_head < a.q_tail do
    let h = a.q_head in
    a.q_head <- h + 1;
    let node = Array.get a.q_node h in
    let in_link_index = Array.get a.q_in h in
    let depth = Array.get a.q_depth h in
    if not (pinned a node) then begin
      pin a node;
      fit_hits a
    end
    [@lipsin.allow_alloc "first visit to a node compiles and pins its engine"];
    let q0 = a.q_tail in
    let fp0 = a.false_positives in
    if Array.get a.use_bits node then begin
      match Array.get a.bits node with
      | None -> ()  (* unreachable: pinned above *)
      | Some bs ->
        let d = Bitsliced.decide bs ~table ~zfilter ~in_link_index in
        a.membership_tests <- a.membership_tests + d.Bitsliced.tests;
        if d.Bitsliced.deliver_local then
          a.local_deliveries <- a.local_deliveries + 1;
        if d.Bitsliced.drop = Bitsliced.drop_fill then
          a.fill_drops <- a.fill_drops + 1
        else if d.Bitsliced.drop = Bitsliced.drop_loop then
          a.loop_drops <- a.loop_drops + 1;
        for i = 0 to d.Bitsliced.n_stitch - 1 do
          let s = Array.get d.Bitsliced.stitches i in
          add_hit a node (Bitsliced.stitch_partition bs s)
            (Bitsliced.stitch_next bs s)
        done;
        let fwd = d.Bitsliced.forward in
        for i = 0 to d.Bitsliced.n_forward - 1 do
          let p = Array.get fwd i in
          propagate a (Bitsliced.out_index bs p) (Bitsliced.out_dst bs p)
            depth
        done;
        if packet >= 0 then
          (record_hop a ~packet ~table ~stage ~engine:Obs.Trace.engine_bitsliced
             ~drop:(Bitsliced.drop_reason d)
             ~loop_suspected:d.Bitsliced.loop_suspected
             ~deliver_local:d.Bitsliced.deliver_local ~node
             ~in_link:in_link_index ~depth ~q0 ~fp0
           [@lipsin.allow_alloc "sampled publication only"])
    end
    else begin
      match Array.get a.fps node with
      | None -> ()
      | Some fp ->
        let d = Fastpath.decide fp ~table ~zfilter ~in_link_index in
        a.membership_tests <- a.membership_tests + d.Fastpath.tests;
        if d.Fastpath.deliver_local then
          a.local_deliveries <- a.local_deliveries + 1;
        if d.Fastpath.drop = Fastpath.drop_fill then
          a.fill_drops <- a.fill_drops + 1
        else if d.Fastpath.drop = Fastpath.drop_loop then
          a.loop_drops <- a.loop_drops + 1;
        for i = 0 to d.Fastpath.n_stitch - 1 do
          let s = Array.get d.Fastpath.stitches i in
          add_hit a node (Fastpath.stitch_partition fp s)
            (Fastpath.stitch_next fp s)
        done;
        let fwd = d.Fastpath.forward in
        for i = 0 to d.Fastpath.n_forward - 1 do
          let p = Array.get fwd i in
          propagate a (Fastpath.out_index fp p) (Fastpath.out_dst fp p)
            depth
        done;
        if packet >= 0 then
          (record_hop a ~packet ~table ~stage ~engine:Obs.Trace.engine_fast
             ~drop:(Fastpath.drop_reason d)
             ~loop_suspected:d.Fastpath.loop_suspected
             ~deliver_local:d.Fastpath.deliver_local ~node
             ~in_link:in_link_index ~depth ~q0 ~fp0
           [@lipsin.allow_alloc "sampled publication only"])
    end
  done

let[@lipsin.noalloc] deliver a ~trace ~stage ~src ~table ~zfilter =
  reset a;
  Array.set a.q_node 0 src;
  Array.set a.q_in 0 (-1);
  Array.set a.q_depth 0 0;
  a.q_tail <- 1;
  Array.set a.reached src true;
  Array.set a.touched_nodes 0 src;
  Array.set a.reach_depth 0 0;
  a.n_reached <- 1;
  let packet =
    if trace.Obs.Trace.tc_sampled then trace.Obs.Trace.tc_packet else -1
  in
  run_queue a ~table ~zfilter ~packet ~stage

let rec under_count traversed acc links =
  match links with
  | [] -> acc
  | l :: rest ->
    under_count traversed
      (if Array.get traversed l.Graph.index then acc else acc + 1)
      rest

let[@lipsin.noalloc] under_delivery a = under_count a.tree_traversed 0 a.tree
let[@lipsin.noalloc] reached_node a v = Array.get a.reached v

let reached_copy a =
  let r = Array.make a.n_nodes false in
  for i = 0 to a.n_reached - 1 do
    r.(a.touched_nodes.(i)) <- true
  done;
  r
