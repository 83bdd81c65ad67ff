(** Cross-module shared-state (domain-race) analysis over typed trees.

    Collects every mutable write reachable from a [Domain.spawn] body
    and classifies it: domain-local, atomic, mutex-guarded,
    obs-padded-cell, DLS-backed, or an unsanctioned shared write —
    the latter reported with a witness access path and the call chain
    from the spawn site.  Per-site suppression:
    [@lipsin.allow_race "reason"].

    Approximations (see DESIGN.md 5h): values returned by calls count
    as domain-local (fresh-value assumption, operationally backed by
    [Service.warm_graph] pre-forcing shared memos), closures are
    analysed in their definition scope, and unknown external callees
    are assumed read-only. *)

val rule : string

val run : roots:string list -> int * Finding.t list
(** Load every .cmt under [roots]; returns the number of spawn sites
    analysed and the findings. *)

val run_units : Typed.unit_info list -> int * Finding.t list
(** Same, over already-loaded units (used by tests). *)

val debug_summary : Typed.index -> Typed.binding -> string
(** Render one binding's write/call summary; debug aid for tuning. *)
