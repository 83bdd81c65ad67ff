(** The LIPSIN forwarding node.

    Implements Algorithm 1 over d forwarding tables (Fig. 4) plus the
    design extensions of Sec. 3:

    - {b virtual links} (3.3.1): extra table entries whose match sends
      the packet over a set of this node's physical links;
    - {b link failure} marking, used by both recovery schemes (3.3.2);
    - {b loop prevention} (3.3.3): incoming-LIT check with a bounded
      cache of (zFilter, arrival link) pairs;
    - {b explicit blocking} (3.3.4): "negative" Link IDs attached to a
      physical link that veto forwarding on match;
    - {b slow path} (3.4): a node-local Link ID addressing the control
      processor;
    - the {b fill-factor limit} (4.4): over-full zFilters are dropped
      before any matching ("implemented in hardware, without causing
      any additional delay"). *)

type drop_reason =
  | Fill_limit_exceeded  (** Contamination defence tripped. *)
  | Loop_detected        (** Cached zFilter returned over another link. *)
  | Bad_table            (** d index outside the node's tables. *)

type verdict = {
  forward_on : Lipsin_topology.Graph.link list;
      (** Physical links to forward the packet on, deduplicated, in
          port order; empty when dropped or nothing matches. *)
  deliver_local : bool;
      (** The node-local (slow-path) Link ID matched: hand the packet
          to the control processor. *)
  services_matched : string list;
      (** Named local services whose identities matched (Sec. 3.4:
          "the egress points of a virtual link can be basically
          anything: nodes, processor cards within nodes, or even
          specific services"). *)
  stitches_matched : (int * int) list;
      (** Partition stitch entries whose egress LIT matched, as
          [(partition id, next stage index)] pairs in match order: the
          packet's delivery continues here under the child stage's
          filter (XBF-style partitioned zFilters). *)
  loop_suspected : bool;
      (** An incoming LIT other than the arrival link matched; the
          (zFilter, in-link) pair was cached. *)
  drop : drop_reason option;
      (** When [Some _], the packet was discarded and [forward_on] is
          empty. *)
  false_positive_tests : int;
      (** Membership tests performed on physical+virtual entries
          (denominator of Eq. 2); bookkeeping for experiments. *)
}

type t

val create :
  ?fill_limit:float ->
  ?loop_cache_capacity:int ->
  ?loop_cache_ttl:int ->
  ?loop_prevention:bool ->
  Lipsin_core.Assignment.t ->
  Lipsin_topology.Graph.node ->
  t
(** Builds the node's forwarding state from the assignment: one entry
    per outgoing physical link in each of the d tables, a fresh local
    Link ID, and the incoming LITs of its interfaces (for loop
    prevention, enabled by default).  [fill_limit] defaults to 0.7;
    [loop_cache_capacity] to 1024 entries.  Cached (zFilter, arrival)
    pairs are valid for the current {!tick} plus [loop_cache_ttl]
    further ticks (default 0) — the paper's "short period of time".
    The simulator ticks every engine once per packet delivery, so a
    loop (the same packet returning) is caught while traffic
    re-routed between deliveries is not misread as looping. *)

val tick : t -> unit
(** Advances the engine's notion of time, aging the loop cache.  Call
    once per packet flight (the Net/Run layers do this). *)

val node : t -> Lipsin_topology.Graph.node
val local_lit : t -> Lipsin_bloom.Lit.t
val table_count : t -> int

val forward :
  t ->
  table:int ->
  zfilter:Lipsin_bloom.Zfilter.t ->
  in_link:Lipsin_topology.Graph.link option ->
  verdict
(** One forwarding decision.  Never forwards back on the arrival
    link's reverse direction unless a virtual entry demands it. *)

val fail_link : t -> Lipsin_topology.Graph.link -> unit
(** Marks an outgoing physical link down: its entries stop matching.
    @raise Invalid_argument if the link is not an outgoing link of this
    node. *)

val restore_link : t -> Lipsin_topology.Graph.link -> unit

val install_virtual :
  t -> Lipsin_bloom.Lit.t -> out_links:Lipsin_topology.Graph.link list -> unit
(** Installs a virtual-link entry: when the given identity's table-i
    tag matches a packet using table i, the packet is forwarded over
    [out_links] (this node's physical links belonging to the virtual
    link).  [out_links] may be empty for pure egress membership.
    @raise Invalid_argument if some link is not outgoing here. *)

val remove_virtual : t -> Lipsin_bloom.Lit.t -> unit
(** Removes entries installed for this identity (by nonce). *)

val install_service : t -> Lipsin_bloom.Lit.t -> name:string -> unit
(** Registers a service endpoint: packets whose zFilter contains the
    identity's tag are handed to the named local service (reported in
    [services_matched]). *)

val remove_service : t -> Lipsin_bloom.Lit.t -> unit

val install_stitch : t -> Lipsin_bloom.Lit.t -> partition:int -> next:int -> unit
(** Registers a partition stitch entry: packets whose zFilter covers
    the identity's tag report [(partition, next)] in
    [stitches_matched], telling the delivery layer to hand the packet
    over to stage [next] of the partition rooted at this node. *)

val remove_stitch : t -> nonce:int64 -> unit
(** Removes the stitch entries installed under this egress nonce — all
    a removal needs, so callers skip re-deriving the LIT. *)

val stitch_entries : t -> (Lipsin_bitvec.Bitvec.t array * int * int) list
(** The stitch entries as [(tags per table, partition id, next stage)],
    newest first — [(state t).state_stitches] without snapshotting the
    rest of the engine. *)

val virtual_count : t -> int

val install_block : t -> Lipsin_topology.Graph.link -> Lipsin_bloom.Lit.t -> unit
(** Attaches a negative Link ID to an outgoing physical link: packets
    whose zFilter contains the negative tag are not forwarded over that
    link (Sec. 3.3.4). *)

val install_block_pattern :
  t ->
  Lipsin_topology.Graph.link ->
  table:int ->
  Lipsin_bitvec.Bitvec.t ->
  unit
(** Like {!install_block} but vetoes a single raw pattern in one
    forwarding table only — the form carried by in-band
    {!Lipsin_control.Message.Block_request}s, where the victim knows
    the offending zFilter but not a full identity.
    @raise Invalid_argument if [table] is out of range. *)

val clear_blocks : t -> Lipsin_topology.Graph.link -> unit

(** {2 State snapshot}

    A read-only view of everything the engine's decision depends on, in
    the exact order the decision consults it.  {!Fastpath.compile}
    flattens this into contiguous word arrays; tests use it to assert
    table contents.  The [Bitvec.t] values are shared with the engine —
    callers must not mutate them. *)

type port_state = {
  port_link : Lipsin_topology.Graph.link;
  port_up : bool;
  port_tags : Lipsin_bitvec.Bitvec.t array;      (** One LIT per table. *)
  port_in_tags : Lipsin_bitvec.Bitvec.t array;   (** Reverse direction's LITs. *)
  port_blocks : Lipsin_bitvec.Bitvec.t option array list;
      (** Negative Link IDs: per-table optional veto patterns. *)
}

type state = {
  state_node : Lipsin_topology.Graph.node;
  state_params : Lipsin_bloom.Lit.params;
  state_fill_limit : float;
  state_local : Lipsin_bloom.Lit.t;
  state_ports : port_state array;  (** In port (decision) order. *)
  state_virtuals :
    (Lipsin_bitvec.Bitvec.t array * Lipsin_topology.Graph.link list) list;
      (** (per-table tags, out links), in match order. *)
  state_services : (Lipsin_bitvec.Bitvec.t array * string) list;
      (** (per-table tags, name), in match order. *)
  state_stitches : (Lipsin_bitvec.Bitvec.t array * int * int) list;
      (** (per-table tags, partition id, next stage), in match order. *)
  state_loop_prevention : bool;
  state_loop_capacity : int;
  state_loop_ttl : int;
  state_tick : int;
}

val state : t -> state

val forwarding_table_bits : t -> sparse:bool -> int
(** Memory footprint of the node's forwarding tables per Sec. 4.2:
    dense = d·entries·(m + 8) bits; sparse stores only the k set-bit
    positions, k·ceil(log2 m) + 8 bits per entry. *)
