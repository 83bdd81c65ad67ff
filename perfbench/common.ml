(* Shared pieces of the benchmark: the program configuration every
   workload runs under, timing helpers, the per-publication counter
   tallies the delivery oracle compares, and the result line. *)

module Rng = Lipsin_util.Rng
module Stats = Lipsin_util.Stats
module Lit = Lipsin_bloom.Lit
module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module As_presets = Lipsin_topology.As_presets
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Select = Lipsin_core.Select
module Adaptive = Lipsin_core.Adaptive
module Stagecut = Lipsin_core.Stagecut
module Partition = Lipsin_bloom.Partition
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Service = Lipsin_sim.Service
module Stitched = Lipsin_sim.Stitched
module Scenario = Lipsin_workload.Scenario
module Obs = Lipsin_obs.Obs
module Fastpath = Lipsin_forwarding.Fastpath
module Bitsliced = Lipsin_forwarding.Bitsliced

(* Seconds on the monotonic clock (nanosecond resolution). *)
external now : unit -> (float[@unboxed])
  = "perfbench_now_byte" "perfbench_now"
[@@noalloc]

(* The configuration `bench --soak` and `lipsin_cli soak` run under. *)
let sampling = 1024
let engine = `Fast

(* The flight recorder freezes on its first trigger and stays frozen
   until thawed, which is where a long-running service spends its
   life.  It is frozen up front so every run measures that state: left
   armed, it froze at a moment set by host noise (a latency jump during
   set-up in one run, midway through the timed window in another), and
   an armed recorder allocates several times the words per publication
   of a frozen one, so minor_words_per_pub followed the noise. *)
let freeze_flight () =
  if not (Obs.Flight.frozen ()) then
    Obs.Flight.fire Obs.Flight.Manual ~packet:(-1)
      ~detail:"perfbench: frozen before set-up"

let configure_obs () =
  Obs.Sink.set Obs.Sink.Memory;
  Obs.Trace.set_recording true;
  Obs.Trace.set_sampling sampling;
  freeze_flight ()

(* Seed reserved for confirming a claimed gain: tune on any other. *)
let held_out_seed = 9_973

let workers () = Domain.recommended_domain_count ()

(* ---- statistics ---- *)

let pct xs p = if Array.length xs = 0 then 0.0 else Stats.percentile xs p
let median xs = pct xs 50.0

let median_list l = median (Array.of_list l)

(* ---- statistics that hold still on a shared host ----

   A run is cut into consecutive slices, a statistic is taken per slice,
   and the run reports the quietest decile of those: the 10th
   percentile of a cost, the 90th of a rate.  Another tenant taking a
   core for part of a run slows the slices it overlaps and leaves the
   rest alone, so the figure follows the program rather than the
   neighbours; a program that gets slower is slower in every slice.
   On a shared 2-vCPU VM the quartiles still moved by 10% from run to
   run of one seed on link-churn, the deciles by about 3%. *)
let quiet_cost xs = pct xs 10.0
let quiet_rate xs = pct xs 90.0

let max_slices = 100
let min_slice = 100

(* Percentile [p] of time-ordered samples: per slice (at most
   [max_slices] of them), then [quiet_cost] over the slices.  A slice
   holds at least [min_slice] samples, and at least 40 beyond the
   percentile, so a p90 is not read off a slice's few largest samples.
   Below four slices it is the plain percentile. *)
let sliced_pct xs p =
  let n = Array.length xs in
  let len = max min_slice (int_of_float (40.0 /. (1.0 -. (p /. 100.0)))) in
  let k = min max_slices (n / len) in
  if k < 4 then pct xs p
  else
    quiet_cost
      (Array.init k (fun g ->
           let lo = g * n / k and hi = (g + 1) * n / k in
           pct (Array.sub xs lo (hi - lo)) p))

(* ---- counter tallies: what the oracle compares ---- *)

(* Indexes into a tally. *)
let t_trav = 0
let t_fps = 1
let t_tests = 2
let t_fill = 3
let t_loop = 4
let t_local = 5
let t_reached = 6
let tally_len = 7

let tally_of_outcome (o : Run.outcome) =
  let reached = Array.fold_left (fun n r -> if r then n + 1 else n) 0 o.reached in
  [| o.link_traversals; o.false_positives; o.membership_tests; o.fill_drops;
     o.loop_drops; o.local_deliveries; reached |]

let tally_of_stats (s : Service.stats) =
  [| s.st_link_traversals; s.st_false_positives; s.st_membership_tests;
     s.st_fill_drops; s.st_loop_drops; s.st_local_deliveries;
     s.st_nodes_reached |]

let tally_of_stitched (o : Stitched.outcome) =
  let reached = Array.fold_left (fun n d -> if d > 0 then n + 1 else n) 0 o.delivered in
  [| o.link_traversals; o.false_positives; o.membership_tests; o.fill_drops;
     o.loop_drops; 0; reached |]

let tally_of_arena (a : Arena.t) =
  [| a.link_traversals; a.false_positives; a.membership_tests; a.fill_drops;
     a.loop_drops; a.local_deliveries; a.n_reached |]

let add_into acc t = for k = 0 to tally_len - 1 do acc.(k) <- acc.(k) + t.(k) done
let zero_tally () = Array.make tally_len 0

(* One single-filter publication's reference outcome: [Run.deliver] on
   the reference engine over its own Net, outside every timed window. *)
let reference net (j : Service.job) =
  Run.deliver ~engine:`Reference ~trace:Obs.Trace.off net ~src:j.job_src
    ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree

(* Eq. 3 numerator for one publication, matching
   [Run.forwarding_efficiency]: tree links when anything moved. *)
let eff_links (o : Run.outcome) (j : Service.job) =
  if o.link_traversals = 0 then 0 else List.length j.job_tree

(* ---- the result line ---- *)

let metrics : (string * string * float) list ref = ref []
let emit name unit_ value = metrics := (name, unit_, value) :: !metrics

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let git_commit () =
  let read path =
    try
      let ic = open_in path in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " ->
    let r = String.sub h 5 (String.length h - 5) in
    Option.value (read (Filename.concat ".git" r)) ~default:"unknown"
  | Some h -> h
  | None -> "unknown"

let print_provenance ~workload ~seed ~seconds ~trace =
  Printf.printf
    "{\"provenance\": {\"workload\": %S, \"nproc\": %d, \"service_workers\": \
     %d, \"ocaml\": %S, \"commit\": %S, \"obs_sink\": \"memory\", \
     \"trace_sampling\": %d, \"engine\": \"fast\", \"seed\": %d, \
     \"held_out_seed\": %d, \"seconds\": %g, \"trace\": %b}}\n"
    workload
    (Domain.recommended_domain_count ())
    (workers ()) Sys.ocaml_version (git_commit ()) sampling seed held_out_seed
    seconds trace

let print_result ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          ms))

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
