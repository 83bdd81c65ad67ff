(* The four workloads.  [setup] builds a workload's inputs from the
   seed and a warmed program (the part [setup_s] times) and returns a
   teardown plus a [finish] that computes the oracle data and the
   record below: [window] runs one timed measurement and then, with the
   clock stopped, checks every publication against the delivery
   oracle; [flap_probe] measures link-failure stalls; [layer_input]
   hands the traced run's layer pass the workload's own inputs. *)

open Common

type window = {
  attempted : int;  (** Publications due or sent. *)
  pubs : int;  (** Publications completed. *)
  failed : int;  (** Oracle mismatches, plus due-but-unsent (paced). *)
  rates : float array;  (** pubs/s of consecutive slices, in time order. *)
  lat : float array;  (** Per-publication (or per-batch) latency, s. *)
  stalls : float array;  (** Flap stalls inside the window, s. *)
  words : float;  (** Minor words: workers plus dispatcher. *)
  tally : int array;  (** Summed delivery counters. *)
  eff_links : int;  (** Eq. 3 numerator over the window. *)
  batches : int;
  steals : int;
  sampled : int;
  late : float array;  (** Dispatcher lateness samples, s. *)
}

type t = {
  precheck : unit -> int;  (** Untimed bit-for-bit pass: failures. *)
  precheck_pubs : int;
  window : float -> window;
  flap_probe : (unit -> window * (int -> window)) option;
      (** Link-failure stalls for workloads whose window has no flaps:
          sets up (returning its untimed, oracle-checked pre-roll) and
          hands back the runner of piece [i] of [segments]. *)
  layer_input : unit -> Layers.input;
  service_burst : (float -> window) option;
      (** Traced run only: a closed-loop [Service] window for workloads
          whose own window bypasses the service. *)
  partitioned : bool;
  paced : bool;
}

(* pubs/s over up to [max_slices] slices of consecutive (seconds, jobs)
   records.  A slice holds whole multiples of [cycle] records, the
   records that publish every topic once, so each slice does the same
   work; the last slice also takes the run's partial cycle. *)
let slice_rates ~cycle recs =
  let recs = Array.of_list recs in
  let n = Array.length recs in
  let cycles = max 1 (n / cycle) in
  let k = min max_slices cycles in
  Array.init k (fun g ->
      let lo = g * cycles / k * cycle in
      let hi = if g = k - 1 then n else (g + 1) * cycles / k * cycle in
      let s = ref 0.0 and j = ref 0 in
      for i = lo to hi - 1 do
        let dt, jobs = recs.(i) in
        s := !s +. dt;
        j := !j + jobs
      done;
      float_of_int !j /. !s)

(* The window's pubs/s: [quiet_rate] over its slices. *)
let rate w = quiet_rate w.rates

(* ---- oracle data for single-filter publications ---- *)

type oracle = {
  tallies : int array array;
  sets : bool array array;
  eff : int array;
}

let oracle_of assignment jobs =
  let net = Net.make ~loop_prevention:false assignment in
  let outs = Array.map (reference net) jobs in
  {
    tallies = Array.map tally_of_outcome outs;
    sets = Array.map (fun o -> o.Run.reached) outs;
    eff = Array.mapi (fun i o -> eff_links o jobs.(i)) outs;
  }

(* Expected counters for jobs [first .. first + n - 1] (cyclic). *)
let expected oracle ~first ~n =
  let acc = zero_tally () and eff = ref 0 in
  let m = Array.length oracle.tallies in
  for i = first to first + n - 1 do
    add_into acc oracle.tallies.(i mod m);
    eff := !eff + oracle.eff.(i mod m)
  done;
  (acc, !eff)

(* The untimed bit-for-bit pass: every job's delivery set and counters
   from [Service.run_collect] against its reference outcome. *)
let precheck_collect svc sent oracle =
  let n = Array.length sent in
  let sets = Array.make n [||] and tallies = Array.make n [||] in
  ignore
    (Service.run_collect svc sent ~f:(fun i o ->
         sets.(i) <- o.Run.reached;
         tallies.(i) <- tally_of_outcome o));
  let failed = ref 0 in
  for i = 0 to n - 1 do
    if sets.(i) <> oracle.sets.(i) || tallies.(i) <> oracle.tallies.(i) then
      incr failed
  done;
  !failed

let flap_period = 64
let flap_checked = 256

(* A warmed single-domain arena over [assignment], with every job
   published once. *)
let warm_arena assignment jobs =
  let net = Net.make ~loop_prevention:false assignment in
  let arena =
    Spans.span "arena.warm" (fun () ->
        let a = Arena.create net in
        Arena.warm a engine;
        a)
  in
  Array.iter
    (fun (j : Service.job) ->
      Run.deliver_into ~engine:`Fast arena ~src:j.job_src
        ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree)
    jobs;
  (net, arena)

(* The flap loop: every [flap_period] publications [Net.fail_link] takes
   a seeded random link down, the next publication runs with it down
   (its stall runs from the fail_link call to its completion), and
   [Net.restore_link] brings it back.  Period q publishes topics
   q * (flap_period + 1) onwards, so flap publications visit every
   topic instead of the same [n / flap_period] in each pass, and a
   seed's few heaviest topics do not set its stalls.  Afterwards, with
   the clock stopped, every other publication is checked against the
   all-up reference and the flap publications of the first
   [flap_checked] periods against a reference Net with the same link
   down. *)
let churn_window ~assignment ~net ~arena ~jobs ~sent ~oracle ~seed seconds =
  let graph = Net.graph net in
  let links = Graph.links graph in
  let n = Array.length jobs in
  let cap = (int_of_float (seconds *. 250_000.0) / flap_period) + 1 in
  let p_link = Array.make cap 0 in
  let p_flap = Array.make (cap * tally_len) 0 in
  let p_rest = Array.make (cap * tally_len) 0 in
  let p_start = Array.make cap 0.0 and p_end = Array.make cap 0.0 in
  let stall = Array.make cap 0.0 in
  let lat = Array.make (cap * flap_period) 0.0 in
  let rng = Rng.of_int (seed + 0xc4a5) in
  let sampled = ref 0 in
  let note_tally dst off =
    let a = arena in
    dst.(off + t_trav) <- dst.(off + t_trav) + a.Arena.link_traversals;
    dst.(off + t_fps) <- dst.(off + t_fps) + a.Arena.false_positives;
    dst.(off + t_tests) <- dst.(off + t_tests) + a.Arena.membership_tests;
    dst.(off + t_fill) <- dst.(off + t_fill) + a.Arena.fill_drops;
    dst.(off + t_loop) <- dst.(off + t_loop) + a.Arena.loop_drops;
    dst.(off + t_local) <- dst.(off + t_local) + a.Arena.local_deliveries;
    dst.(off + t_reached) <- dst.(off + t_reached) + a.Arena.n_reached
  in
  let topic q r = ((q * (flap_period + 1)) + r) mod n in
  let publish t =
    let ctx = Obs.Trace.start () in
    let j = sent.(t) in
    (* As in the service's job loop, only a sampled publication passes
       its trace context (and so takes the allocating path). *)
    if ctx.Obs.Trace.tc_sampled then begin
      incr sampled;
      Run.deliver_into ~engine:`Fast ~trace:ctx arena ~src:j.Service.job_src
        ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree
    end
    else
      Run.deliver_into ~engine:`Fast arena ~src:j.Service.job_src
        ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree
  in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let p = ref 0 and i = ref 0 in
  while !p < cap && now () < t_end do
    let off = !p * tally_len in
    let l = links.(Rng.int rng (Array.length links)) in
    p_link.(!p) <- l.index;
    let ts = now () in
    p_start.(!p) <- ts;
    let sp = Spans.enter ~pub:!i "net.fail_link" in
    Net.fail_link net l;
    Spans.leave sp;
    if !Spans.enabled then begin
      let sp = Spans.enter ~pub:!i "arena.prepare" in
      Arena.prepare arena engine;
      Spans.leave sp
    end;
    (* Only the flap publication gets a span: one per publication
       would overflow the span log within a second. *)
    let sp = Spans.enter ~pub:!i "link_churn.flap_publication" in
    publish (topic !p 0);
    Spans.leave sp;
    let td = now () in
    stall.(!p) <- td -. ts;
    lat.(!i) <- td -. ts;
    note_tally p_flap off;
    incr i;
    let sp = Spans.enter ~pub:!i "net.restore_link" in
    Net.restore_link net l;
    Spans.leave sp;
    for r = 1 to flap_period - 1 do
      let t1 = now () in
      publish (topic !p r);
      lat.(!i) <- now () -. t1;
      note_tally p_rest off;
      incr i
    done;
    p_end.(!p) <- now ();
    incr p
  done;
  let dwords = Gc.minor_words () -. w0 in
  let periods = !p in
  let rnet = Net.make ~loop_prevention:false assignment in
  let failed = ref 0 and eff = ref 0 in
  let tally = zero_tally () in
  for q = 0 to periods - 1 do
    let off = q * tally_len in
    let first = topic q 0 in
    let exp, e = expected oracle ~first:(first + 1) ~n:(flap_period - 1) in
    let rest = Array.sub p_rest off tally_len in
    if rest <> exp then failed := !failed + flap_period - 1;
    let flap = Array.sub p_flap off tally_len in
    let job = jobs.(first) in
    if q < flap_checked then begin
      let l = Graph.link graph p_link.(q) in
      Net.fail_link rnet l;
      let o = reference rnet job in
      Net.restore_link rnet l;
      if flap <> tally_of_outcome o then incr failed
    end;
    add_into tally rest;
    add_into tally flap;
    eff :=
      !eff + e + if flap.(t_trav) > 0 then List.length job.job_tree else 0
  done;
  {
    attempted = !i;
    pubs = !i;
    failed = !failed;
    rates =
      slice_rates ~cycle:(max 1 (n / flap_period))
        (List.init periods (fun q ->
             let prev = if q = 0 then t0 else p_end.(q - 1) in
             (p_end.(q) -. prev, flap_period)));
    lat = Array.sub lat 0 !i;
    stalls = Array.sub stall 0 periods;
    words = dwords;
    tally;
    eff_links = !eff;
    batches = !i;
    steals = 0;
    sampled = !sampled;
    late =
      Array.init periods (fun q ->
          p_start.(q) -. if q = 0 then t0 else p_end.(q - 1));
  }

(* A timed window is cut into [segments] pieces.  Workloads whose own
   window has no link flaps measure flap stalls in a probe, one probe
   piece after each segment.  Both then sample the host over the whole
   run, so a slow stretch on a shared host weighs on them alike instead
   of landing on a probe run after the window. *)
let segments = 10

(* Seconds of flap probe per run on the Zipf workloads. *)
let flap_probe_seconds = 4.0

(* One window from consecutive segments: counts add up, and samples and
   slice rates concatenate. *)
let merge ws =
  let sum f = List.fold_left (fun a w -> a + f w) 0 ws in
  let tally = zero_tally () in
  List.iter (fun w -> add_into tally w.tally) ws;
  {
    attempted = sum (fun w -> w.attempted);
    pubs = sum (fun w -> w.pubs);
    failed = sum (fun w -> w.failed);
    rates = Array.concat (List.map (fun w -> w.rates) ws);
    lat = Array.concat (List.map (fun w -> w.lat) ws);
    stalls = Array.concat (List.map (fun w -> w.stalls) ws);
    words = List.fold_left (fun a w -> a +. w.words) 0.0 ws;
    tally;
    eff_links = sum (fun w -> w.eff_links);
    batches = sum (fun w -> w.batches);
    steals = sum (fun w -> w.steals);
    sampled = sum (fun w -> w.sampled);
    late = Array.concat (List.map (fun w -> w.late) ws);
  }

(* ---- steady-zipf and paced-zipf: Zipf topics on AS6461 ---- *)

let zipf_topics ~tiny = if tiny then 256 else 4096

let topic_jobs graph assignment (loads : Scenario.topic_load array) =
  Array.map
    (fun (t : Scenario.topic_load) ->
      let tree =
        Spans.span "spt.delivery_tree" (fun () ->
            Spt.delivery_tree graph ~root:t.publisher ~subscribers:t.subscribers)
      in
      let cands =
        Spans.span "candidate.build" (fun () -> Candidate.build assignment ~tree)
      in
      let c = Spans.span "select.standard" (fun () -> Select.standard cands) in
      {
        Service.job_src = t.publisher;
        job_table = c.Candidate.table;
        job_zfilter = c.Candidate.zfilter;
        job_tree = tree;
      })
    loads

(* A deliberately wrong job for the self-check: topic 0 carrying
   another topic's zFilter (the oracle keeps topic 0's outcome). *)
let corrupt jobs =
  let sent = Array.copy jobs in
  let other = jobs.(Array.length jobs / 2) in
  sent.(0) <- { (jobs.(0)) with Service.job_zfilter = other.Service.job_zfilter };
  sent

let zipf_base ~graph ~tiny ~seed =
  let assignment = Assignment.make Lit.default (Rng.of_int seed) graph in
  let loads =
    Scenario.sample { Scenario.default with Scenario.seed } graph
      ~n:(zipf_topics ~tiny)
  in
  let jobs = topic_jobs graph assignment loads in
  (assignment, loads, jobs)

let topics_of loads =
  Array.map (fun (t : Scenario.topic_load) -> (t.publisher, t.subscribers)) loads

let zipf_layer_input ~graph ~assignment ~loads ~jobs ~seed =
  let adaptive = Adaptive.make ~d:8 ~k:5 (Rng.of_int seed) graph in
  let topics = topics_of loads in
  let top = Layers.plan_top topics ~adaptive ~seed ~k:8 in
  {
    Layers.graph;
    assignment;
    flat = Array.sub jobs 0 (min 256 (Array.length jobs));
    adaptive;
    parts = top;
    topics = Array.sub topics 0 (min 64 (Array.length topics));
    plan_in_setup = false;
    single_in_setup = true;
  }

(* A closed loop: [dispatch b] runs the [b]-th batch and returns its
   stats and latency samples; [expect b] is the oracle's expected tally
   and Eq. 3 numerator for that batch.  The oracle comparison runs
   after the clock stops. *)
let closed_window ~cycle ~dispatch ~expect seconds =
  let recs = ref [] in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let b = ref 0 and prev = ref t0 in
  while !prev < t_end do
    let bi = !b in
    let ts = now () in
    let st, lat = dispatch bi in
    let te = now () in
    recs := (bi, ts, te, !prev, st, lat) :: !recs;
    prev := te;
    incr b
  done;
  let dwords = Gc.minor_words () -. w0 in
  let recs = List.rev !recs in
  let failed = ref 0 and eff = ref 0 and words = ref dwords and pubs = ref 0 in
  let tally = zero_tally () and steals = ref 0 and sampled = ref 0 in
  List.iter
    (fun (bi, _, _, _, (st : Service.stats), _) ->
      let exp, e = expect bi in
      let got = tally_of_stats st in
      if got <> exp then failed := !failed + st.st_jobs;
      pubs := !pubs + st.st_jobs;
      add_into tally got;
      eff := !eff + e;
      words := !words +. st.st_minor_words;
      steals := !steals + st.st_steals;
      sampled := !sampled + st.st_sampled)
    recs;
  {
    attempted = !pubs;
    pubs = !pubs;
    failed = !failed;
    rates =
      slice_rates ~cycle
        (List.map (fun (_, _, te, p, (st : Service.stats), _) -> (te -. p, st.st_jobs)) recs);
    lat = Array.concat (List.map (fun (_, _, _, _, _, l) -> l) recs);
    stalls = [||];
    words = !words;
    tally;
    eff_links = !eff;
    batches = !b;
    steals = !steals;
    sampled = !sampled;
    late = Array.of_list (List.map (fun (_, ts, _, p, _, _) -> ts -. p) recs);
  }

let service_batch = 1024

(* Closed loop of [batch]-job [Service.run] batches cycling through
   [sent]; latency is the batch's dispatch-to-completion time.  Batch b
   starts at topic b * (batch + 1), so the process-wide 1-in-1024 trace
   sampling lands on a different topic each batch instead of pinning
   the same few topics for the whole run. *)
let service_closed_window svc sent oracle ~batch =
  let n = Array.length sent in
  let cyc = Array.append sent (Array.sub sent 0 batch) in
  let buf = Array.sub sent 0 batch in
  let first b = b * (batch + 1) mod n in
  let dispatch b =
    Array.blit cyc (first b) buf 0 batch;
    let ts = now () in
    let sp = Spans.enter ~pub:(first b) "service.run" in
    let st = Service.run svc buf in
    Spans.leave ~count:batch sp;
    (st, [| now () -. ts |])
  in
  closed_window ~cycle:(max 1 (n / batch)) ~dispatch
    ~expect:(fun b -> expected oracle ~first:(first b) ~n:batch)

let paced_rate = 10_000.0
let paced_max_batch = 256

(* Open loop: publication i is due at t0 + i / rate; whenever the
   service is free the dispatcher sends everything due, at most
   [paced_max_batch] per [Service.run], and otherwise sleeps until the
   next due time (spinning instead would take a core from the two
   workers on a two-core host).  Latency runs from the due time. *)
let paced_window svc sent oracle seconds =
  let n = Array.length sent in
  let cyc = Array.append sent (Array.sub sent 0 (min n paced_max_batch)) in
  let bufs = Array.init (paced_max_batch + 1) (fun k -> Array.sub sent 0 k) in
  let total = int_of_float (seconds *. paced_rate) in
  let lat = Array.make total 0.0 and late = Array.make total 0.0 in
  (* Per batch: first publication, size and the 7 counters, kept in a
     Bigarray so that neither allocation nor major-GC marking grows
     with the run. *)
  let rec_len = 2 + tally_len in
  let recs = Bigarray.(Array1.create int c_layout (total * rec_len)) in
  let batches = ref 0 and words = ref 0.0 in
  let steals = ref 0 and sampled = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let due i = t0 +. (float_of_int i /. paced_rate) in
  (* Dispatching stops one second after the schedule ends; whatever is
     still unsent then counts as failed. *)
  let give_up = t0 +. seconds +. 1.0 in
  let next = ref 0 and t = ref t0 in
  while !next < total && !t < give_up do
    let t_now = now () in
    t := t_now;
    let ready = min total (int_of_float ((t_now -. t0) *. paced_rate) + 1) in
    let k = min paced_max_batch (ready - !next) in
    if k <= 0 then Unix.sleepf (due !next -. t_now)
    else begin
      let first = !next in
      let buf = bufs.(k) in
      Array.blit cyc (first mod n) buf 0 k;
      let sp = Spans.enter ~pub:first "service.run" in
      let st = Service.run svc buf in
      Spans.leave ~count:k sp;
      let te = now () in
      for i = first to first + k - 1 do
        lat.(i) <- te -. due i;
        late.(i) <- t_now -. due i
      done;
      let off = !batches * rec_len in
      recs.{off} <- first;
      recs.{off + 1} <- k;
      recs.{off + 2 + t_trav} <- st.st_link_traversals;
      recs.{off + 2 + t_fps} <- st.st_false_positives;
      recs.{off + 2 + t_tests} <- st.st_membership_tests;
      recs.{off + 2 + t_fill} <- st.st_fill_drops;
      recs.{off + 2 + t_loop} <- st.st_loop_drops;
      recs.{off + 2 + t_local} <- st.st_local_deliveries;
      recs.{off + 2 + t_reached} <- st.st_nodes_reached;
      words := !words +. st.st_minor_words;
      steals := !steals + st.st_steals;
      sampled := !sampled + st.st_sampled;
      incr batches;
      next := first + k;
      t := te
    end
  done;
  let words = !words +. (Gc.minor_words () -. w0) in
  let sent_n = !next in
  let failed = ref (total - sent_n) and eff = ref 0 in
  let tally = zero_tally () in
  for b = 0 to !batches - 1 do
    let off = b * rec_len in
    let first = recs.{off} and k = recs.{off + 1} in
    let got = Array.init tally_len (fun c -> recs.{off + 2 + c}) in
    let exp, e = expected oracle ~first ~n:k in
    if got <> exp then failed := !failed + k;
    add_into tally got;
    eff := !eff + e
  done;
  {
    attempted = total;
    pubs = sent_n;
    failed = !failed;
    rates = [| float_of_int sent_n /. (!t -. t0) |];
    lat = Array.sub lat 0 sent_n;
    stalls = [||];
    words;
    tally;
    eff_links = !eff;
    batches = !batches;
    steals = !steals;
    sampled = !sampled;
    late = Array.sub late 0 sent_n;
  }

let steady_or_paced ~paced ~tiny ~seed ~inject =
  let graph = As_presets.as6461 () in
  let assignment, loads, jobs = zipf_base ~graph ~tiny ~seed in
  let n = Array.length jobs in
  let svc =
    Spans.span "service.create" (fun () -> Service.create ~engine assignment)
  in
  let batch = min service_batch n in
  for b = 0 to (n / batch) - 1 do
    ignore (Service.run svc (Array.sub jobs (b * batch) batch))
  done;
  ( (fun () ->
    let oracle = oracle_of assignment jobs in
    let sent = if inject then corrupt jobs else jobs in
    {
      precheck = (fun () -> precheck_collect svc sent oracle);
      precheck_pubs = n;
      window =
        (if paced then paced_window svc sent oracle
         else service_closed_window svc sent oracle ~batch);
      flap_probe =
        Some
          (fun () ->
            let net, arena = warm_arena assignment jobs in
            let probe i =
              churn_window ~assignment ~net ~arena ~jobs ~sent ~oracle
                ~seed:(seed + i)
            in
            ( probe segments 0.5,
              fun i -> probe i (flap_probe_seconds /. float_of_int segments) ));
      layer_input =
        (fun () -> zipf_layer_input ~graph ~assignment ~loads ~jobs ~seed);
      service_burst = None;
      partitioned = false;
      paced;
    } ),
    fun () -> Service.shutdown svc )

(* ---- partitioned-tail: stage-cut popular-tail topics on a two-tier
   topology ---- *)

let partitioned ~tiny ~seed ~inject =
  let n_topics, hosts, lo, hi =
    if tiny then (4, 600, 50, 150) else (32, 4000, 200, 1200)
  in
  let graph, host_list =
    Scenario.two_tier ~seed ~core:100 ~core_edges:200 ~max_degree:32 ~hosts ()
  in
  let host_arr = Array.of_list host_list in
  let adaptive = Adaptive.make ~d:8 ~k:5 (Rng.of_int seed) graph in
  let rng = Rng.of_int (seed + 0x7a11) in
  (* Audience sizes are evenly spread over [lo, hi] so every seed has the
     same size mix; the seed draws roots and host sets. *)
  let topics =
    Array.init n_topics (fun i ->
        let size = lo + (i * (hi - lo) / max 1 (n_topics - 1)) in
        let picks = Rng.sample rng size (Array.length host_arr) in
        (Rng.int rng 100, Array.to_list (Array.map (fun i -> host_arr.(i)) picks)))
  in
  let parts =
    Array.mapi
      (fun i (root, subscribers) ->
        match
          Spans.span ~pub:i "stagecut.plan" (fun () ->
              Stagecut.plan adaptive ~id:i ~rng ~root ~subscribers)
        with
        | Ok (p, _) -> p
        | Error e -> failwith ("Stagecut.plan: " ^ e))
      topics
  in
  let base = Adaptive.assignment adaptive ~m:248 in
  let svc =
    Spans.span "service.create" (fun () ->
        Service.create ~engine ~adaptive base)
  in
  ignore (Service.run_partitioned svc parts ~f:(fun _ _ -> ()));
  ( (fun () ->
    let s = Stitched.make ~loop_prevention:false adaptive in
    let refs =
      Array.map
        (fun p ->
          Stitched.install s p;
          let o = Stitched.deliver ~engine:`Reference s p in
          Stitched.uninstall s p;
          o)
        parts
    in
    let ref_tallies = Array.map tally_of_stitched refs in
    let tree_links (p : Partition.t) =
      Array.fold_left (fun n (st : Partition.stage) -> n + List.length st.links) 0 p.stages
    in
    let all = zero_tally () in
    Array.iter (add_into all) ref_tallies;
    let all_eff = ref 0 in
    Array.iteri
      (fun i (o : Stitched.outcome) ->
        if o.link_traversals > 0 then all_eff := !all_eff + tree_links parts.(i))
      refs;
    let sent =
      if inject then begin
        let c = Array.copy parts in
        c.(0) <- { (parts.(1)) with Partition.id = parts.(0).Partition.id };
        c
      end
      else parts
    in
    let n = Array.length sent in
    let precheck () =
      let got = Array.make n None in
      ignore (Service.run_partitioned svc sent ~f:(fun i o -> got.(i) <- Some o));
      let failed = ref 0 in
      Array.iteri
        (fun i o ->
          match o with
          | Some (o : Stitched.outcome) ->
            if
              o.delivered <> refs.(i).Stitched.delivered
              || tally_of_stitched o <> ref_tallies.(i)
              || Result.is_error (Stitched.exactly_once o parts.(i))
            then incr failed
          | None -> incr failed)
        got;
      !failed
    in
    let done_at = Array.make n 0.0 in
    let dispatch _ =
      let ts = now () in
      let sp = Spans.enter "service.run" in
      let st =
        Service.run_partitioned svc sent ~f:(fun i _ -> done_at.(i) <- now ())
      in
      Spans.leave ~count:n sp;
      (st, Array.map (fun t -> t -. ts) done_at)
    in
    let flap_probe () =
      (* Flaps cycle through the partitions: the link goes down in every
         width view of a dispatcher-side family, then that partition's
         stitched publication runs; stall = fail_link to its completion.
         Each piece takes 24 flaps (240 per run); each publication
         allocates ~600k words, so a stall may include a major-GC slice,
         and that many keeps the percentiles from hinging on a few (with
         120 the p90 spread 0.26 over ten seeds). *)
      let s = Stitched.make ~loop_prevention:false adaptive in
      let nets = List.map (fun m -> Stitched.net s ~m) (Adaptive.widths adaptive) in
      let links = Graph.links graph in
      let frng = Rng.of_int (seed + 0xf1a9) in
      let pub p =
        Stitched.install s p;
        ignore (Stitched.deliver ~engine s p);
        Stitched.uninstall s p
      in
      let next = ref 0 in
      let piece flaps =
        let stalls =
          Array.init flaps (fun _ ->
              let p = parts.(!next mod n) in
              incr next;
              let l = links.(Rng.int frng (Array.length links)) in
              let t0 = now () in
              List.iter (fun net -> Net.fail_link net l) nets;
              pub p;
              let dt = now () -. t0 in
              List.iter (fun net -> Net.restore_link net l) nets;
              dt)
        in
        {
          attempted = 0;
          pubs = 0;
          failed = 0;
          rates = [||];
          lat = [||];
          stalls;
          words = 0.0;
          tally = zero_tally ();
          eff_links = 0;
          batches = 0;
          steals = 0;
          sampled = 0;
          late = [||];
        }
      in
      (* The untimed warm round compiles every width's nodes. *)
      Array.iter pub parts;
      (piece 0, fun _ -> piece 24)
    in
    let layer_input () =
      (* Single-filter views of the partitions: each stage of the most
         common width is a plain publication from its own root. *)
      let by_width = Hashtbl.create 4 in
      Array.iter
        (fun (p : Partition.t) ->
          Array.iter
            (fun (st : Partition.stage) ->
              let l = Option.value (Hashtbl.find_opt by_width st.m) ~default:[] in
              Hashtbl.replace by_width st.m (st :: l))
            p.stages)
        parts;
      let m, stages =
        Hashtbl.fold
          (fun m l (bm, bl) -> if List.length l > List.length bl then (m, l) else (bm, bl))
          by_width (0, [])
      in
      let flat =
        List.rev stages
        |> List.filteri (fun i _ -> i < 256)
        |> List.map (fun (st : Partition.stage) ->
               {
                 Service.job_src = st.root;
                 job_table = st.table;
                 job_zfilter = st.filter;
                 job_tree = List.map (Stagecut.stage_link graph) st.links;
               })
        |> Array.of_list
      in
      {
        Layers.graph;
        assignment = Adaptive.assignment adaptive ~m;
        flat;
        adaptive;
        parts = Array.sub parts 0 (min 8 n);
        topics = Array.sub topics 0 (min 8 n);
        plan_in_setup = true;
        single_in_setup = false;
      }
    in
    {
      precheck;
      precheck_pubs = n;
      window = closed_window ~cycle:1 ~dispatch ~expect:(fun _ -> (all, !all_eff));
      flap_probe = Some flap_probe;
      layer_input;
      service_burst = None;
      partitioned = true;
      paced = false;
    } ),
    fun () -> Service.shutdown svc )

(* ---- link-churn: one single-domain router under link flaps ---- *)

let link_churn ~tiny ~seed ~inject =
  let graph = As_presets.as3257 () in
  let assignment, loads, jobs = zipf_base ~graph ~tiny ~seed in
  let n = Array.length jobs in
  let net, arena = warm_arena assignment jobs in
  ( (fun () ->
      let oracle = oracle_of assignment jobs in
      let sent = if inject then corrupt jobs else jobs in
      let service_burst seconds =
        let svc =
          Spans.span "service.create" (fun () ->
              Service.create ~engine assignment)
        in
        let batch = min service_batch n in
        ignore (service_closed_window svc sent oracle ~batch (seconds /. 10.0));
        let w = service_closed_window svc sent oracle ~batch seconds in
        Service.shutdown svc;
        w
      in
      {
        precheck =
          (fun () ->
            let failed = ref 0 in
            Array.iteri
              (fun i (j : Service.job) ->
                Run.deliver_into ~engine:`Fast arena
                  ~src:j.job_src ~table:j.job_table ~zfilter:j.job_zfilter
                  ~tree:j.job_tree;
                if
                  Arena.reached_copy arena <> oracle.sets.(i)
                  || tally_of_arena arena <> oracle.tallies.(i)
                then incr failed)
              sent;
            !failed);
        precheck_pubs = n;
        window =
          (* Each call (pre-roll, segment) draws its own flap links. *)
          (let calls = ref 0 in
           fun seconds ->
             incr calls;
             churn_window ~assignment ~net ~arena ~jobs ~sent ~oracle
               ~seed:(seed + (7919 * !calls)) seconds);
        flap_probe = None;
        layer_input =
          (fun () -> zipf_layer_input ~graph ~assignment ~loads ~jobs ~seed);
        service_burst = Some service_burst;
        partitioned = false;
        paced = false;
      } ),
    fun () -> () )

let setup name ~tiny ~seed ~inject =
  match name with
  | "steady-zipf" -> steady_or_paced ~paced:false ~tiny ~seed ~inject
  | "paced-zipf" -> steady_or_paced ~paced:true ~tiny ~seed ~inject
  | "partitioned-tail" -> partitioned ~tiny ~seed ~inject
  | "link-churn" -> link_churn ~tiny ~seed ~inject
  | _ -> invalid_arg ("unknown workload " ^ name)

let names = [ "steady-zipf"; "paced-zipf"; "partitioned-tail"; "link-churn" ]
