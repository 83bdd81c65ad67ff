module Graph = Lipsin_topology.Graph
module Assignment = Lipsin_core.Assignment
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Bitsliced = Lipsin_forwarding.Bitsliced
module Obs = Lipsin_obs.Obs

(* Telemetry: engine/compile churn.  All rare control-plane events. *)
let m_engine_creates =
  Obs.Counter.make ~help:"Reference node engines instantiated lazily"
    "lipsin_engine_creates_total"

let m_fastpath_compiles =
  Obs.Counter.make ~help:"Fast-path table compilations"
    "lipsin_fastpath_compiles_total"

let m_bitsliced_compiles =
  Obs.Counter.make ~help:"Bit-sliced table compilations"
    "lipsin_bitsliced_compiles_total"

let m_invalidations =
  Obs.Counter.make ~help:"Fast-path compilations invalidated by link events"
    "lipsin_fastpath_invalidations_total"

let m_ticks =
  Obs.Counter.make ~help:"Loop-cache clock ticks across all nets"
    "lipsin_net_ticks_total"

type t = {
  assignment : Assignment.t;
  fill_limit : float option;
  loop_prevention : bool;
  engines : Node_engine.t option array;
  fastpaths : Fastpath.t option array;
  bitsliceds : Bitsliced.t option array;
  mutable generation : int;
      (* bumped whenever a node's cached compilation is dropped or
         patched, so holders of compiled-engine snapshots (Arena) can
         detect staleness cheaply *)
  changes : int array;
      (* ring log: [changes.(g land (length - 1))] is the node whose
         change produced generation [g]; lets a holder re-pin just the
         nodes that changed since its snapshot *)
}

(* The change log holds at least one entry per node, so a holder that
   falls further behind than the log reaches re-reads every node, which
   costs no more than replaying the log would. *)
let log_capacity n =
  let c = ref 64 in
  while !c < n do
    c := 2 * !c
  done;
  !c

let make ?fill_limit ?(loop_prevention = true) assignment =
  let n = Graph.node_count (Assignment.graph assignment) in
  {
    assignment;
    fill_limit;
    loop_prevention;
    engines = Array.make n None;
    fastpaths = Array.make n None;
    bitsliceds = Array.make n None;
    generation = 0;
    changes = Array.make (log_capacity n) 0;
  }

let assignment t = t.assignment
let graph t = Assignment.graph t.assignment
let generation t = t.generation
let loop_prevention t = t.loop_prevention

let engine t node =
  match t.engines.(node) with
  | Some e -> e
  | None ->
    let e =
      match t.fill_limit with
      | Some fill_limit ->
        Node_engine.create ~fill_limit ~loop_prevention:t.loop_prevention
          t.assignment node
      | None ->
        Node_engine.create ~loop_prevention:t.loop_prevention t.assignment node
    in
    t.engines.(node) <- Some e;
    Obs.Counter.incr m_engine_creates;
    e

let engine_of = engine

let note_change t node =
  t.generation <- t.generation + 1;
  t.changes.(t.generation land (Array.length t.changes - 1)) <- node

let changed_since t g f =
  if t.generation - g > Array.length t.changes then false
  else begin
    for i = g + 1 to t.generation do
      f t.changes.(i land (Array.length t.changes - 1))
    done;
    true
  end

(* Debug guardrail: with LIPSIN_FASTPATH_AUDIT set, every compile is
   re-verified against the blob-layout invariants before it can serve a
   decision.  Read per compile (compiles are rare) so no global state is
   introduced — this module is reachable from the Domain-parallel
   delivery path. *)
let audit_enabled () = Sys.getenv_opt "LIPSIN_FASTPATH_AUDIT" <> None

let check_audit what node violations =
  match violations with
  | [] -> ()
  | violations ->
    invalid_arg
      (Printf.sprintf "Net.%s: audit of node %d's compile failed: %s" what node
         (String.concat "; " (List.map Lipsin_analysis.Audit.to_string violations)))

let audited_fastpath node f =
  if audit_enabled () then check_audit "fastpath" node (Lipsin_analysis.Audit.audit f);
  f

let audited_bitsliced node b =
  if audit_enabled () then
    check_audit "bitsliced" node (Lipsin_analysis.Audit.audit_bitsliced b);
  b

let fastpath t node =
  match t.fastpaths.(node) with
  | Some f -> f
  | None ->
    let f = audited_fastpath node (Fastpath.compile (engine t node)) in
    t.fastpaths.(node) <- Some f;
    Obs.Counter.incr m_fastpath_compiles;
    f

let bitsliced t node =
  match t.bitsliceds.(node) with
  | Some b -> b
  | None ->
    let b = audited_bitsliced node (Bitsliced.compile (engine t node)) in
    t.bitsliceds.(node) <- Some b;
    Obs.Counter.incr m_bitsliced_compiles;
    b

let invalidate_fastpath t node =
  if t.fastpaths.(node) <> None || t.bitsliceds.(node) <> None then
    Obs.Counter.incr m_invalidations;
  t.fastpaths.(node) <- None;
  t.bitsliceds.(node) <- None;
  note_change t node

(* A stitch change touches only the stitch section of a compiled
   engine, so cached compilations are patched rather than dropped (an
   uncached one compiles from the updated engine when first asked). *)
let patch_stitches t node =
  let e = engine t node in
  (match t.fastpaths.(node) with
  | Some f ->
    t.fastpaths.(node) <- Some (audited_fastpath node (Fastpath.patch_stitches f e))
  | None -> ());
  (match t.bitsliceds.(node) with
  | Some b ->
    t.bitsliceds.(node) <- Some (audited_bitsliced node (Bitsliced.patch_stitches b e))
  | None -> ());
  note_change t node

let install_stitch t node lit ~partition ~next =
  Node_engine.install_stitch (engine t node) lit ~partition ~next;
  patch_stitches t node

let remove_stitch t node ~nonce =
  Node_engine.remove_stitch (engine t node) ~nonce;
  patch_stitches t node

(* Only the loop caches read an engine's clock, so a net without loop
   prevention has nothing to advance. *)
let tick t =
  Obs.Counter.incr m_ticks;
  if t.loop_prevention then begin
    Array.iter
      (function Some e -> Node_engine.tick e | None -> ())
      t.engines;
    Array.iter
      (function Some f -> Fastpath.tick f | None -> ())
      t.fastpaths;
    Array.iter
      (function Some b -> Bitsliced.tick b | None -> ())
      t.bitsliceds
  end

let fail_link t link =
  Node_engine.fail_link (engine t link.Graph.src) link;
  invalidate_fastpath t link.Graph.src

let restore_link t link =
  Node_engine.restore_link (engine t link.Graph.src) link;
  invalidate_fastpath t link.Graph.src

let verify ?(samples = 0) ?(seed = 0x11) t =
  let model =
    Lipsin_analysis.Netcheck.model_of_engines t.assignment
      ~engine_of:(engine t)
  in
  let rng = Lipsin_util.Rng.of_int seed in
  Lipsin_analysis.Netcheck.check_deployment ~samples ~rng model

(* Debug guardrail mirroring the fastpath audit gate: with
   LIPSIN_NETCHECK set, every Net is statically verified at build time
   and refused if the deployment admits an Error-severity finding
   (uncatchable loop, LIT collision, unsound recovery).  Read per make
   (makes are rare) so no global state is introduced. *)
let netcheck_enabled () =
  match Sys.getenv_opt "LIPSIN_NETCHECK" with
  | None | Some "" -> false
  | Some _ -> true

let make ?fill_limit ?loop_prevention assignment =
  let t = make ?fill_limit ?loop_prevention assignment in
  if netcheck_enabled () then begin
    match Lipsin_analysis.Netcheck.errors (verify t) with
    | [] -> ()
    | errs ->
      invalid_arg
        (Printf.sprintf "Net.make: deployment verification failed: %s"
           (String.concat "; "
              (List.map Lipsin_analysis.Netcheck.to_string errs)))
  end;
  t
