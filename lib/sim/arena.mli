(** Arena-recycled delivery scratch: the zero-allocation steady-state
    publication path.

    {!Run.deliver} allocates a fresh delivery set, seen-link bitmap,
    event queue and traversal list per publication — ~6.8k minor GC
    words per op (BENCH_PR4), a steady-state tax no line-rate router
    pays.  An arena preallocates all of that once per (worker, Net) and
    recycles it: bitmaps reset in O(links actually touched) via touched
    stacks, the BFS frontier is a flat ring bounded by [link_count + 1]
    (each link traverses at most once in expand-once mode), and every
    node's compiled engine is pinned — all up front by {!warm}, or each
    on its first visit after {!prepare} — so the steady-state loop never
    falls into the Net's lazy compile caches.  {!deliver} is a certified
    [[@lipsin.noalloc]] root; a node's first visit is its one allocating
    branch besides tracing.

    An arena runs expand-once delivery on the [`Fast], [`Bitsliced] and
    [`Auto] engines; it is how the forwarding service and every stage
    of a stitched publication ({!Stitched.deliver}) deliver on them.
    Matched stitch entries are collected in recycled hit buffers, in
    {!Run.outcome}'s [stitch_hits] order.  Trace-sampled publications
    run the same loop and additionally record one
    {!Lipsin_obs.Obs.Trace} event per dequeued node.  The reference
    engine, TTL mode and loss stay with the general simulator,
    {!Run.deliver}.

    An arena belongs to one domain (its buffers are private mutable
    state) and to one {!Net}; {!prepare} re-pins just the pinned nodes
    whose compilations changed since the last pin
    ({!Net.changed_since}), so a link flap recompiles one node and a
    stitch install pins the patched engine without recompiling
    anything. *)

type t = {
  net : Net.t;
  graph : Lipsin_topology.Graph.t;
  n_nodes : int;
  n_links : int;
  fps : Lipsin_forwarding.Fastpath.t option array;
  bits : Lipsin_forwarding.Bitsliced.t option array;
  use_bits : bool array;
  mutable warm_code : int;
  mutable warm_generation : int;
  in_degree : int array;
  hit_bound : int array;  (** Per node: pinned stitch entries times
                              (in-degree + 1). *)
  mutable hit_cap : int;  (** Sum of [hit_bound]: the most stitch hits
                              one delivery can collect. *)
  reached : bool array;  (** Delivery-set bitmap; valid entries only for
                             nodes on the touched stack. *)
  touched_nodes : int array;  (** First [n_reached] entries: the nodes
                                  reached, in first-reach order;
                                  slot 0 is the source. *)
  reach_depth : int array;  (** Hop depth at which [touched_nodes.(i)]
                                was first reached (0 for the source) —
                                the latency-histogram feed. *)
  mutable n_reached : int;
  seen_link : bool array;
  touched_links : int array;
  mutable n_seen : int;
  on_tree : bool array;
  tree_traversed : bool array;
  mutable tree : Lipsin_topology.Graph.link list;
  q_node : int array;
  q_in : int array;
  q_depth : int array;
  mutable q_head : int;
  mutable q_tail : int;
  mutable link_traversals : int;
  mutable false_positives : int;
  mutable membership_tests : int;
  mutable fill_drops : int;
  mutable loop_drops : int;
  mutable local_deliveries : int;
  mutable deliveries : int;  (** Non-source nodes first reached. *)
  mutable over_delivery : int;  (** Off-tree link traversals. *)
  mutable hit_node : int array;
  mutable hit_partition : int array;
  mutable hit_next : int array;
  mutable n_hits : int;
      (** The first [n_hits] entries of [hit_node]/[hit_partition]/
          [hit_next] are the stitch entries the last {!deliver} matched,
          as [(node, partition id, next stage)] in dequeue order — the
          recycled form of {!Run.outcome}'s [stitch_hits]. *)
}
(** Exposed concretely so {!Run} and the forwarding service read tallies
    with plain field loads inside their own noalloc regions.  Treat
    every field as read-only outside [lib/sim]. *)

val create : Net.t -> t
(** Preallocates all scratch for the net's topology.  Cheap relative to
    {!warm}; no engines are compiled yet. *)

val net : t -> Net.t

val warm : t -> [ `Fast | `Bitsliced | `Auto ] -> unit
(** Compiles and pins every node's engine for [engine] in one batch
    ([`Auto] picks per node at {!Lipsin_forwarding.Bitsliced.auto_threshold}),
    sizes the stitch-hit buffers, then records {!Net.generation} so
    {!prepare} can detect staleness. *)

val prepare : t -> [ `Fast | `Bitsliced | `Auto ] -> unit
(** When the engine choice changed (or the arena is new), chooses each
    node's engine kind for [engine] and unpins every node: each then
    compiles (if the net has no compilation cached) and pins on its
    first visit, so memory follows the nodes deliveries reach.
    Otherwise, if the net changed since the last pin, re-pins only the
    pinned nodes that changed (same per-node engine kind; every pinned
    node when the net's change log no longer reaches back); free when
    nothing changed. *)

val set_tree : t -> Lipsin_topology.Graph.link list -> unit
(** Installs the intended tree for false-positive / over- /
    under-delivery classification.  Physically-equal lists are
    recognised and cost nothing — recycle job records in soak loops. *)

val deliver :
  t -> trace:Lipsin_obs.Obs.Trace.ctx -> stage:int ->
  src:Lipsin_topology.Graph.node -> table:int ->
  zfilter:Lipsin_bloom.Zfilter.t -> unit
(** One expand-once publication over the pinned engines, writing the
    delivery set, stitch hits and tallies into the arena.  Requires
    {!warm} or {!prepare}, and {!set_tree}, first.  With [trace] unsampled
    ({!Lipsin_obs.Obs.Trace.off}) it is allocation-free
    ([[@lipsin.noalloc]], checked by [lipsin_lint --alloc] and at
    runtime by [bench --soak]).  A sampled [trace] also records one
    event per dequeued node under [trace.tc_packet], with the same
    fields {!Run.deliver} records, into the calling domain's ring;
    [stage] tags them with the partition stage ([-1] = unstaged). *)

val trace_kind :
  Lipsin_forwarding.Node_engine.drop_reason option -> Lipsin_obs.Obs.Trace.kind
(** The trace event kind of a decision's drop reason. *)

val under_delivery : t -> int
(** Intended-tree links never traversed by the last {!deliver}. *)

val reached_node : t -> Lipsin_topology.Graph.node -> bool
(** Membership in the last delivery set, allocation-free. *)

val reached_copy : t -> bool array
(** The last delivery set as a fresh bitmap (allocates; test use). *)
