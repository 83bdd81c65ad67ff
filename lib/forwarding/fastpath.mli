(** The compiled line-speed forwarding engine.

    {!Node_engine} is the reference implementation: per decision it
    walks per-link entry lists and allocates a verdict record.  This
    module {e compiles} a node's forwarding state into the layout the
    paper's hardware discussion assumes (Sec. 4.2–4.3): the d
    forwarding tables — physical links, virtual links, negative Link
    IDs, the local slow-path ID and service endpoints — are flattened
    at {!compile} time into contiguous 64-bit-word arrays, one padded
    entry per row, and a decision is a branch-light word-wise AND/compare
    sweep over those rows that writes into a preallocated
    {!type-decision} buffer.  After the scratch buffers are warm, a
    {!decide} call allocates nothing (when loop prevention is off; the
    loop cache keys one small string per decision otherwise).

    Down links are compiled to never-matching rows: each entry carries
    a spare {e kill bit} in its word padding which the (zero-padded)
    packet filter can never cover, so link state costs no branch in the
    hot loop.

    A compiled engine is a {e snapshot}: mutations to the source
    {!Node_engine.t} after {!compile} (failures, virtual installs,
    blocks) are not seen — recompile instead ({!Lipsin_sim.Net} does
    this automatically).  The loop-prevention cache starts empty at
    compile time and then evolves with the same FIFO/TTL semantics as
    the reference engine's, so both engines agree decision-for-decision
    when fed the same packet history from creation. *)

type t

type decision = {
  mutable forward : int array;
      (** Ports to forward on: indexes valid in \[0, [n_forward]), in
          first-match order; map with {!out_link}. *)
  mutable n_forward : int;
  mutable deliver_local : bool;
  mutable services : int array;
      (** Matched service indexes, valid in \[0, [n_services]). *)
  mutable n_services : int;
  mutable stitches : int array;
      (** Matched stitch-entry indexes, valid in \[0, [n_stitch]);
          resolve payloads with {!stitch_targets}. *)
  mutable n_stitch : int;
  mutable loop_suspected : bool;
  mutable drop : int;  (** One of the [drop_*] codes below. *)
  mutable tests : int;
      (** Membership tests charged (= physical + virtual entries). *)
}

val no_drop : int
val drop_fill : int
val drop_loop : int
val drop_bad_table : int

val compile : Node_engine.t -> t
(** Flattens the engine's current state ({!Node_engine.state}) into the
    compiled table layout. *)

val patch_stitches : t -> Node_engine.t -> t
(** [patch_stitches t engine] is [t] with its stitch section rebuilt
    from [engine]'s current stitch entries: the stitch rows, payloads
    and decision buffer are new, every other blob, the loop cache and
    the scratch buffers are shared with [t], and the digest rehashes
    only the stitch section.  Equal, digest included, to a fresh
    {!compile} of [engine] when only stitch entries changed since [t]
    was compiled.  [t] is retired: decide on the result only.
    @raise Invalid_argument if [engine] is not [t]'s node. *)

val node : t -> Lipsin_topology.Graph.node
val table_count : t -> int
val port_count : t -> int

val out_link : t -> int -> Lipsin_topology.Graph.link
(** The physical link behind a port index from [decision.forward]. *)

val out_index : t -> int -> int
(** The dense link index behind a port — [
    (out_link t p).index] without the record hop; allocation-free, for
    recycled-buffer delivery loops. *)

val out_dst : t -> int -> int
(** The destination node behind a port — [(out_link t p).dst];
    allocation-free. *)

val stitch_count : t -> int
(** Stitch entries compiled in. *)

val stitch_partition : t -> int -> int
(** Partition id of stitch entry [s] (an index from
    [decision.stitches]); allocation-free. *)

val stitch_next : t -> int -> int
(** Next stage of stitch entry [s]; allocation-free. *)

val tick : t -> unit
(** Advances the loop-cache clock (mirror of {!Node_engine.tick}). *)

val decide :
  t -> table:int -> zfilter:Lipsin_bloom.Zfilter.t -> in_link_index:int -> decision
(** One forwarding decision; [in_link_index] is the dense index of the
    arrival link, or [-1] when the packet originates here.  Returns the
    engine's scratch decision buffer — read it before the next [decide]
    on this engine, and do not hold onto it.
    @raise Invalid_argument if the zFilter width differs from the
    compiled [m]. *)

val decide_batch :
  t ->
  table:int ->
  (Lipsin_bloom.Zfilter.t * int) array ->
  f:(int -> decision -> unit) ->
  unit
(** [decide_batch t ~table inputs ~f] runs {!decide} over an array of
    (zFilter, arrival-link index) pairs in one pass, invoking [f i d]
    with the scratch decision for input [i].  The batch entry point for
    the sharded serving path. *)

val drop_reason : decision -> Node_engine.drop_reason option
(** The decision's drop code as the reference engine's type. *)

val forward_links : t -> decision -> Lipsin_topology.Graph.link list
val service_names : t -> decision -> string list

val stitch_targets : t -> decision -> (int * int) list
(** Matched stitch entries as [(partition id, next stage)] pairs, in
    match order — the partitioned-zFilter handoff payloads. *)

val verdict : t -> decision -> Node_engine.verdict
(** Re-materialises a reference-engine verdict (allocates); the bridge
    the differential tests compare across. *)

val table_bytes : t -> int
(** Total compiled table footprint in bytes (all d tables: physical,
    incoming, block, virtual, local, service and stitch rows). *)

(** {1 Introspection}

    A structural window onto the compiled blobs for the invariant
    auditor ([Lipsin_analysis.Audit]) and its mutation tests.  The
    arrays and [Bytes.t] values are {e shared} with the live engine, not
    copies — treat them as read-only unless you are deliberately
    injecting corruption in a test. *)

type view = {
  view_m : int;  (** Filter width in bits. *)
  view_d : int;  (** Number of forwarding tables. *)
  view_k_for_table : int array;  (** Bits set per LIT, per table. *)
  view_words : int;  (** 64-bit words per entry, [m/64 + 1]. *)
  view_stride : int;  (** Bytes per entry, [8 * words]. *)
  view_data_len : int;  (** Live filter bytes, [ceil(m/8)]. *)
  view_n_ports : int;
  view_up : bool array;  (** Per-port link state at compile time. *)
  view_out_index : int array;  (** Port -> dense link index. *)
  view_phys : Bytes.t array;  (** Per table: [n_ports] LIT entries. *)
  view_in_tags : Bytes.t array;  (** Per table: [n_ports] incoming LITs. *)
  view_blocks : Bytes.t array;  (** Per table: concatenated veto patterns. *)
  view_block_off : int array array;
      (** Per table: [n_ports + 1] prefix offsets into the block blob. *)
  view_n_virt : int;
  view_virt : Bytes.t array;  (** Per table: [n_virt] virtual entries. *)
  view_v_out_off : int array;  (** [n_virt + 1] prefix offsets. *)
  view_v_out_ports : int array;  (** Flattened virtual egress ports. *)
  view_local : Bytes.t array;  (** Per table: the node-local LIT. *)
  view_svc : Bytes.t array;  (** Per table: one entry per service. *)
  view_svc_names : string array;
  view_stitch : Bytes.t array;  (** Per table: one entry per stitch point. *)
  view_stitch_partition : int array;  (** Stitch payloads: partition ids. *)
  view_stitch_next : int array;  (** Stitch payloads: next stage indexes. *)
  view_forward_cap : int;  (** Decision buffer capacity for ports. *)
  view_services_cap : int;  (** Decision buffer capacity for services. *)
  view_stitch_cap : int;  (** Decision buffer capacity for stitches. *)
  view_seen_cap : int;  (** Dedup stamp array capacity. *)
  view_digest : int;  (** Integrity digest recorded at {!compile}. *)
}

val view : t -> view

val digest : t -> int
(** Recomputes the integrity digest over the current blob contents and
    geometry, both sections (core and stitch).  Equal to
    [(view t).view_digest] iff no blob byte changed since {!compile}
    or the last {!patch_stitches}. *)

(** {1 Shared with {!Bitsliced}}

    The word-at-a-time multiply-xorshift both compiled engines hash
    their blobs with, and the stitch-section row builder. *)

val mix_offset : int
val mix_int : int -> int -> int
val mix_ints : int -> int array -> int
val mix_bytes : int -> Bytes.t -> int
val mix_blobs : int -> Bytes.t array -> int

val stitch_rows :
  d:int ->
  stride:int ->
  (Lipsin_bitvec.Bitvec.t array * int * int) list ->
  Bytes.t array * int array * int array
(** [stitch_rows ~d ~stride entries] lays stitch entries
    ({!Node_engine.stitch_entries} order) out as one row blob per table
    plus the parallel partition-id and next-stage payload arrays. *)
