(** Semantic invariant auditor for compiled fast-path state.

    The compiled engine ({!Lipsin_forwarding.Fastpath}) trades safety
    for speed: its hot loop assumes a [stride = 8 * (m/64 + 1)]-byte
    entry layout, zero padding beyond bit [m], a kill bit exactly at
    position [m] on down links, LITs with exactly [k] live bits, and
    in-bounds indirection tables.  None of that is visible to the type
    system, and in-packet-Bloom-filter systems historically fail by
    silent encoding drift rather than algorithmic error — so this module
    re-derives every invariant structurally from the blob bytes.

    Checks, by [check] name:
    - ["geometry"] — [words], [stride], [data_len] and [k] consistent
      with [m] and [d];
    - ["d-consistency"] — every per-table array has one blob per
      candidate table;
    - ["blob-size"] — each blob is exactly [entries * stride] bytes;
    - ["offsets"] — block and virtual-egress prefix tables start at 0
      and are monotone, and the flattened arrays match their totals;
    - ["padding"] — no stray bit at or beyond position [m] (the scratch
      filter keeps padding zero, so a stray bit could silently veto
      matches);
    - ["kill-bit"] — bit [m] is set on a physical entry iff its port is
      down, and never on any other entry kind;
    - ["popcount"] — physical, incoming, local and service entries carry
      exactly [k_for_table.(i)] live bits (virtual entries are ORs of
      whole trees and block entries arbitrary veto patterns, so only the
      layout checks apply to them);
    - ["port-bounds"] — virtual egress ports and per-port metadata
      arrays stay inside [\[0, n_ports)];
    - ["capacity"] — the preallocated decision buffers hold the
      worst-case decision;
    - ["digest"] — the fingerprint recorded at compile time (or at the
      last stitch patch) still matches the blob bytes.  This catches {e any} single-byte
      corruption, including flips inside virtual or block live bits that
      the structural checks cannot distinguish from a legitimate tree.

    {!audit_bitsliced} runs the same row checks against the bit-sliced
    engine ({!Lipsin_forwarding.Bitsliced}) — its row blobs follow the
    identical compile contract — and then verifies the transposed
    layout on top:
    - ["col-size"] — slice dimensions (entries, column blocks, plane
      sub-blocks) and blob/array lengths agree with the row geometry;
    - ["col-mirror"] — every canonical column word is the exact
      transpose of the row blob;
    - ["kill-column"] — transposed, column [m] of a physical slice is
      exactly the set of down ports;
    - ["col-used"] — the used map marks precisely the nonzero columns;
    - ["col-active"] — the active position list matches the used map;
    - ["col-valid"] — the per-sub-block validity masks cover exactly
      the slots below the entry count;
    - ["col-plane"] — every derived sweep-plane word is the OR of the
      canonical columns its group value leaves uncovered.

    Run it offline with [lipsin_lint --audit], after every compile in
    debug runs by setting [LIPSIN_FASTPATH_AUDIT=1] (see
    {!Lipsin_sim.Net.fastpath} and [Net.bitsliced]), or directly from
    tests. *)

type violation = {
  check : string;  (** Which invariant family failed (names above). *)
  table : int;  (** Candidate table index, or [-1] if table-independent. *)
  entry : string;
      (** Entry kind: ["phys"], ["in"], ["block"], ["virt"], ["local"],
          ["svc"], or [""] if not entry-specific. *)
  index : int;  (** Entry slot within the blob, or [-1]. *)
  offset : int;
      (** Byte offset of the finding inside the flagged blob (word
          offset for plane findings), or [-1] when the finding is not
          byte-addressable.  Together with [table] this makes layout
          findings on multi-table blobs actionable. *)
  detail : string;  (** Human-readable explanation. *)
}

val audit : ?check_digest:bool -> Lipsin_forwarding.Fastpath.t -> violation list
(** Runs every check and returns all violations (empty = sound).
    [check_digest] (default [true]) additionally compares the recorded
    compile-time digest against the current blob bytes; pass [false] to
    exercise the purely structural checks. *)

val audit_ok : ?check_digest:bool -> Lipsin_forwarding.Fastpath.t -> bool
(** [audit] returned no violation. *)

val audit_bitsliced :
  ?check_digest:bool -> Lipsin_forwarding.Bitsliced.t -> violation list
(** {!audit}'s row checks plus the transposed-layout checks above, for
    the bit-sliced engine. *)

val audit_bitsliced_ok :
  ?check_digest:bool -> Lipsin_forwarding.Bitsliced.t -> bool
(** [audit_bitsliced] returned no violation. *)

val to_string : violation -> string
val pp : Format.formatter -> violation -> unit
