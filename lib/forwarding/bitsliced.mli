(** The bit-sliced (transposed) compiled forwarding engine.

    {!Fastpath} stores each table row-major — one padded LIT entry per
    link — and tests links one at a time, O(ports x words) per
    decision.  This engine stores the same tables {e column-major}:
    word [col[b][blk]] of a table's canonical blob holds filter-bit
    position [b] for the links [64*blk .. 64*blk + 63].  A decision
    starts from an all-ones alive mask per 64-link block and, for every
    zFilter bit position that is zero, clears the links whose LIT sets
    that bit ([alive &= ~col[b]]); the surviving mask bits are exactly
    the links with [zFilter AND LIT = LIT] — one word operation answers
    the membership question for 64 links at once, and survivors are
    recovered in ascending order with count-trailing-zeros iteration.

    The hot loop actually consumes a derived {e plane} of the columns
    (grouping them one filter nibble or byte at a time with a
    precomputed OR per group value — an algebraically identical
    reformulation of the per-bit sweep), held in native [int] arrays of
    32-link sub-blocks so that the sweep runs unboxed without flambda.
    Nodes with at least {!byte_plane_threshold} ports get
    byte-granularity planes (half the sweep steps, 16x the table
    memory); smaller nodes get nibble planes.

    Kill bits, negative/blocking Link IDs, the node-local LIT, service
    endpoints, fill-limit and loop-cache semantics match the scalar
    engines bit for bit: the differential suite checks all three
    engines agree decision for decision, including their Obs meter
    deltas (registered here under [engine="bitsliced"]).  Like
    {!Fastpath}, a compiled engine is a snapshot of the source
    {!Node_engine.t}; recompile after mutating it. *)

type t

type decision = {
  mutable forward : int array;
      (** Ports to forward on: indexes valid in \[0, [n_forward]), in
          ascending port order; map with {!out_link}. *)
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
      (** Membership tests charged (= physical + virtual entries),
          matching the scalar engines' accounting. *)
}

val no_drop : int
val drop_fill : int
val drop_loop : int
val drop_bad_table : int

val auto_threshold : int
(** Port count from which the bit-sliced engine beats the scalar fast
    path, so [Run]'s [`Auto] engine picks it: 16.  Tuned from the
    BENCH_PR5 engine sweep (scalar ahead at 8 ports, bit-sliced ahead
    from 64 up, crossover between 12 and 16) and pinned by a
    bench-derived unit test. *)

val byte_plane_threshold : int
(** Port count from which compile chooses byte-granularity sweep planes
    instead of nibble planes: 64, one full column block.  Distinct from
    {!auto_threshold} — engine choice and plane granularity cross over
    at different sizes. *)

val compile : Node_engine.t -> t
(** Flattens the engine's current state into row blobs (the same
    layout as {!Fastpath.compile}) and transposes them into the
    column-major blobs and sweep planes. *)

val patch_stitches : t -> Node_engine.t -> t
(** The bit-sliced twin of {!Fastpath.patch_stitches}: rebuilds only the
    stitch rows, payloads, stitch slices, decision buffer and the
    auxiliary dead-mask scratch; the digest rehashes only the stitch
    section.  [t] is retired.
    @raise Invalid_argument if [engine] is not [t]'s node. *)

val node : t -> Lipsin_topology.Graph.node
val table_count : t -> int
val port_count : t -> int

val out_link : t -> int -> Lipsin_topology.Graph.link
(** The physical link behind a port index from [decision.forward]. *)

val out_index : t -> int -> int
(** The dense link index behind a port; allocation-free (see
    {!Fastpath.out_index}). *)

val out_dst : t -> int -> int
(** The destination node behind a port; allocation-free. *)

val stitch_count : t -> int
(** Stitch entries compiled in. *)

val stitch_partition : t -> int -> int
(** Partition id of stitch entry [s]; allocation-free. *)

val stitch_next : t -> int -> int
(** Next stage of stitch entry [s]; allocation-free. *)

val plane_bits : t -> int
(** Sweep granularity chosen at compile: 4 (nibble planes) or 8 (byte
    planes). *)

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
(** [decide_batch t ~table inputs ~f] decides a whole array of
    (zFilter, arrival-link index) pairs, amortising the column sweep:
    packets are processed in chunks whose dead masks are computed
    position-outer, so each sweep plane row is reused across the chunk
    while the per-packet logic (loop cache included) still runs in
    input order — the observable semantics are exactly those of calling
    {!decide} in a loop.  [f i d] receives the scratch decision for
    input [i]. *)

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
(** Total compiled footprint in bytes: row blobs plus canonical column
    blobs, used maps and sweep planes, over all d tables. *)

(** {1 Introspection}

    The window [Lipsin_analysis.Audit] uses to cross-check the
    transposed layout against the row blobs.  Arrays and [Bytes.t]
    values are {e shared} with the live engine — treat them as
    read-only unless deliberately injecting corruption in a test. *)

type slice_view = {
  sv_entry : string;
      (** ["phys"], ["in"], ["virt"], ["svc"] or ["stitch"]. *)
  sv_n : int;  (** Entries (ports, virtuals, services or stitches). *)
  sv_blocks : int;  (** 64-entry column blocks, [ceil (n/64)]. *)
  sv_sub : int;  (** 32-entry plane sub-blocks, [ceil (n/32)]. *)
  sv_cols : Bytes.t;
      (** Canonical column-major blob: the word at byte offset
          [((b * blocks) + blk) * 8] holds filter-bit position [b] of
          entries [64*blk .. 64*blk + 63]. *)
  sv_used : Bytes.t;  (** [stride] bytes; bit [b] set iff column [b] is
          nonzero. *)
  sv_active : int array;  (** Ascending plane positions with a used
          column. *)
  sv_plane : int array;
      (** Sweep plane: [((pos << plane_bits) | v) * sub + s] is the
          32-bit dead mask contributed by group [pos] holding value
          [v]. *)
  sv_valid : int array;  (** Per sub-block mask of slots [< n]. *)
}

type view = {
  view_m : int;
  view_d : int;
  view_k_for_table : int array;
  view_words : int;
  view_stride : int;
  view_data_len : int;
  view_plane_bits : int;
  view_n_ports : int;
  view_up : bool array;
  view_out_index : int array;
  view_phys : Bytes.t array;
  view_in_tags : Bytes.t array;
  view_blocks : Bytes.t array;
  view_block_off : int array array;
  view_n_virt : int;
  view_virt : Bytes.t array;
  view_v_out_off : int array;
  view_v_out_ports : int array;
  view_local : Bytes.t array;
  view_svc : Bytes.t array;
  view_svc_names : string array;
  view_stitch : Bytes.t array;
  view_stitch_partition : int array;
  view_stitch_next : int array;
  view_forward_cap : int;
  view_services_cap : int;
  view_stitch_cap : int;
  view_seen_cap : int;
  view_slices : slice_view array array;
      (** Per table: the phys, in, virt, svc and stitch slices, in
          that order. *)
  view_digest : int;  (** Integrity digest recorded at {!compile}. *)
}

val view : t -> view

val digest : t -> int
(** Recomputes the integrity digest (word-wise multiply-xorshift) over
    geometry, row blobs, column blobs and derived arrays.  Equal to
    [(view t).view_digest] iff nothing changed since {!compile} or the
    last {!patch_stitches}. *)
