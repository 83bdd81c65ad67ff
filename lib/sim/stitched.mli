(** Delivery of partitioned (stitched) zFilters.

    A {!Lipsin_core.Stagecut} plan encodes one delivery tree as a
    forest of stages, each with its own (possibly different-width)
    zFilter.  At runtime the stages of one partition chain through
    {e stitch entries}: the parent stage's filter carries a per-stage
    egress LIT, and the node where a child stage roots holds a stitch
    table entry mapping that LIT to [(partition id, next stage)].  This
    module owns the runtime side: one {!Net} per filter width (all
    views of the same {!Lipsin_core.Adaptive} family, so every width
    shares the per-link nonces), stitch-entry installation, and the
    staged delivery loop that follows the data plane's stitch hits.

    On the compiled engines every stage runs in the width's
    {!Arena} (created on the width's first compiled stage; a node's
    engine is pinned on its first visit, or all up front by {!warm}),
    whose kernel collects the stitch hits; installing or removing a
    stitch entry patches the node's compiled engines
    ({!Net.install_stitch}) and the arena re-pins just that node, so a
    warm stitched publication compiles nothing.  The [`Reference]
    engine runs each stage through {!Run.deliver} and stays the
    oracle. *)

type t

val make :
  ?fill_limit:float -> ?loop_prevention:bool -> Lipsin_core.Adaptive.t -> t
(** One lazily-populated {!Net} per width of the family. *)

val adaptive : t -> Lipsin_core.Adaptive.t

val net : t -> m:int -> Net.t
(** The width-[m] network view.
    @raise Invalid_argument for a width outside the family. *)

val warm : t -> [ `Fast | `Bitsliced | `Auto ] -> unit
(** Pins every node's compiled engine in every width's arena
    ({!Arena.warm}), so compiled-engine deliveries compile nothing from
    then on.  Without it each node compiles on its first visit, and
    memory follows the nodes deliveries reach. *)

val install : t -> Lipsin_bloom.Partition.t -> unit
(** Installs every stage's stitch entries: for each handoff of stage
    [p] at node [u], the entry lives in the width-[p.m] net at [u],
    keyed by the LIT derived from [p]'s egress nonce.  Compiled engines
    at touched nodes are patched, not recompiled ({!Net.install_stitch}). *)

val uninstall : t -> Lipsin_bloom.Partition.t -> unit
(** Removes the partition's stitch entries (matched by egress nonce). *)

type outcome = {
  delivered : int array;
      (** Per node: in how many stage runs the packet reached it. *)
  stages_run : int;
  stage_order : int list;  (** Stage indexes in activation order. *)
  duplicate_handoffs : int;
      (** Stitch hits naming an already-activated stage — each a
          would-be double delivery of a whole subtree, suppressed by
          the per-publication activation cache (the same trick as the
          paper's loop cache).  After {!Lipsin_core.Stagecut}'s
          conflict repair these can only arise through false-positive
          paths — the rho^k background Netcheck reports as
          [cross-stage-*] Warnings — so they are measured, not
          treated as an {!exactly_once} violation. *)
  missed_stages : int;  (** Stages whose handoff never fired. *)
  foreign_hits : int;  (** Stitch hits for other partition ids. *)
  subscribers_missed : int;
      (** Subscribers not reached by their owner stage's run. *)
  link_traversals : int;  (** Summed over stage runs. *)
  false_positives : int;
  membership_tests : int;
  fill_drops : int;
  loop_drops : int;
  packet_id : int;
      (** Publication id shared by every stage run's trace events, or
          [-1] when the publication was not sampled.  One id per
          stitched delivery: the reconstructed span forest crosses
          stage boundaries. *)
  trace_anomalies : string list;
      (** Human-readable anomalies from the runtime span cross-check —
          the dynamic twin of
          {!Lipsin_analysis.Netcheck.check_partition}.  Duplicate stage
          activations, suspected loops and (complete-trace) delivery
          mismatches additionally fire the
          {!Lipsin_obs.Obs.Flight} recorder.  Empty when not sampled
          or clean. *)
}

val deliver : ?engine:Run.engine -> t -> Lipsin_bloom.Partition.t -> outcome
(** Runs the staged delivery: stage 0 is published at the partition
    root, and every stitch hit reported by the data plane activates the
    named stage at its own root (once — duplicates are counted, not
    followed).  [engine] defaults to [`Reference] ({!Run.deliver} per
    stage); the compiled engines run each stage through
    {!Run.deliver_into} on the width's arena, with the same outcome,
    Obs counters and trace events bit for bit.  Stages must be installed first ({!install}); a
    partition that was never installed simply strands all non-root
    stages ([missed_stages]). *)

val exactly_once : outcome -> Lipsin_bloom.Partition.t -> (unit, string) result
(** The runtime exactly-once criterion: every stage ran exactly once
    (none missed, nothing foreign acted on) and every subscriber was
    reached by its owner stage.  [Error] carries the first violated
    clause.  Suppressed [duplicate_handoffs] and false-positive
    [extra_deliveries] are the statistical background the fill limit
    bounds — reported, not violations; the {e intent-level} absence of
    duplication is what an [Error]-free
    {!Lipsin_analysis.Netcheck.check_partition} proves. *)

val extra_deliveries : outcome -> Lipsin_bloom.Partition.t -> int
(** Σ over subscribers of (times reached - 1) — the false-positive
    over-delivery background the fill limit bounds; not part of the
    {!exactly_once} verdict. *)
