(* The traced run's layer pass: direct calls into each layer's public
   functions on the workload's own inputs, each wrapped in a span, so
   per-layer self time is measured from outside the program.  Every
   workload runs the whole pass, so every per-layer metric exists on
   every workload; the workload-specific numbers (service, forwarding
   counts, load generator) come from its traced window instead. *)

open Common

(* The workload's inputs as the pass sees them. *)
type input = {
  graph : Graph.t;
  assignment : Assignment.t;
      (** Width of [flat]'s filters; [Net]s and arenas are built over it. *)
  flat : Service.job array;  (** Single-filter publications, sampled. *)
  adaptive : Adaptive.t;  (** Family [parts] and the planning calls use. *)
  parts : Partition.t array;  (** Partitions to drive through [Stitched]. *)
  topics : (Graph.node * Graph.node list) array;
      (** (publisher, subscribers) inputs for the planning calls. *)
  plan_in_setup : bool;
      (** Whether setup already recorded [stagecut.plan] spans. *)
  single_in_setup : bool;
      (** Whether setup already recorded spt/candidate/select spans. *)
}

let decide_reps = 20

(* Replay the decisions a delivery made: the source with no in-link,
   and the head of every traversed link with that link as in-link. *)
let decisions net (j : Service.job) =
  let o = reference net j in
  (j.job_src, -1)
  :: List.map (fun (l : Graph.link) -> (l.dst, l.index)) o.Run.traversed

let replay_decides net flat =
  Array.iteri
    (fun i (j : Service.job) ->
      let ds = Array.of_list (decisions net j) in
      let fps = Array.map (fun (v, _) -> Net.fastpath net v) ds in
      let bss = Array.map (fun (v, _) -> Net.bitsliced net v) ds in
      let work = decide_reps * Array.length ds in
      let run_fast () =
        for _ = 1 to decide_reps do
          Array.iteri
            (fun k (_, inl) ->
              ignore
                (Fastpath.decide fps.(k) ~table:j.job_table
                   ~zfilter:j.job_zfilter ~in_link_index:inl))
            ds
        done
      in
      let run_bits () =
        for _ = 1 to decide_reps do
          Array.iteri
            (fun k (_, inl) ->
              ignore
                (Bitsliced.decide bss.(k) ~table:j.job_table
                   ~zfilter:j.job_zfilter ~in_link_index:inl))
            ds
        done
      in
      run_fast ();
      run_bits ();
      Spans.span ~pub:i ~count:work "fastpath.decide" run_fast;
      Spans.span ~pub:i ~count:work "bitsliced.decide" run_bits)
    flat

(* Per-node compile cost over a seeded sample of at most [cap] nodes. *)
let compile_nodes net ~rng ~cap =
  let n = Graph.node_count (Net.graph net) in
  let nodes = Rng.sample rng (min cap n) n in
  Array.iter
    (fun v ->
      let e = Net.engine net v in
      Spans.span ~pub:v "fastpath.compile" (fun () -> ignore (Fastpath.compile e));
      Spans.span ~pub:v "bitsliced.compile" (fun () -> ignore (Bitsliced.compile e)))
    nodes

let words_per_pub = Hashtbl.create 4

(* Publish [flat] round-robin through [f] for at least [budget]
   seconds (and at least one round), inside one span. *)
let timed_loop name flat ~budget f =
  let n = Array.length flat in
  let pubs = ref 0 in
  let w0 = Gc.minor_words () in
  let sp = Spans.enter name in
  let t_end = now () +. budget in
  while !pubs < n || now () < t_end do
    for _ = 1 to 64 do
      f flat.(!pubs mod n);
      incr pubs
    done
  done;
  Spans.leave ~count:!pubs sp;
  Hashtbl.replace words_per_pub name
    ((Gc.minor_words () -. w0) /. float_of_int !pubs)

let arena_and_run (inp : input) ~budget =
  let net = Net.make ~loop_prevention:false inp.assignment in
  let arena =
    Spans.span "arena.warm" (fun () ->
        let a = Arena.create net in
        Arena.warm a engine;
        a)
  in
  let arena_pub (j : Service.job) =
    Run.deliver_into ~engine:`Fast arena ~src:j.job_src
      ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree
  in
  let run_pub (j : Service.job) =
    ignore
      (Run.deliver ~engine:`Fast ~trace:Obs.Trace.off net ~src:j.job_src
         ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree)
  in
  Array.iter arena_pub inp.flat;
  timed_loop "arena.deliver" inp.flat ~budget arena_pub;
  timed_loop "run.deliver" inp.flat ~budget run_pub;
  (net, arena)

(* Link flaps against a warmed arena: the topology write, then the
   rewarm it forces on the next [Arena.prepare]. *)
let flaps net arena ~rng ~n =
  let links = Graph.links (Net.graph net) in
  for i = 1 to n do
    let l = links.(Rng.int rng (Array.length links)) in
    Spans.span ~pub:i "net.fail_link" (fun () -> Net.fail_link net l);
    Spans.span ~pub:i "arena.prepare" (fun () -> Arena.prepare arena engine);
    Spans.span ~pub:i "net.restore_link" (fun () -> Net.restore_link net l);
    Arena.prepare arena engine
  done

type stitched_counts = {
  mutable pubs : int;
  mutable stages : int;
  mutable dups : int;
  mutable extra : int;
}

let stitched_counts = { pubs = 0; stages = 0; dups = 0; extra = 0 }

let reset () =
  Hashtbl.reset words_per_pub;
  let c = stitched_counts in
  c.pubs <- 0;
  c.stages <- 0;
  c.dups <- 0;
  c.extra <- 0

let stitched_pass (inp : input) =
  let s = Stitched.make ~loop_prevention:false inp.adaptive in
  let once i p =
    Spans.span ~pub:i "stitched.publication" (fun () ->
        Spans.span ~pub:i "stitched.install" (fun () -> Stitched.install s p);
        let o =
          Spans.span ~pub:i "stitched.deliver" (fun () ->
              Stitched.deliver ~engine s p)
        in
        Spans.span ~pub:i "stitched.uninstall" (fun () ->
            Stitched.uninstall s p);
        o)
  in
  (* One untimed round compiles every width's nodes first. *)
  let was = !Spans.enabled in
  Spans.enabled := false;
  Array.iteri (fun i p -> ignore (once i p)) inp.parts;
  Spans.enabled := was;
  Array.iteri
    (fun i p ->
      let o = once i p in
      let c = stitched_counts in
      c.pubs <- c.pubs + 1;
      c.stages <- c.stages + o.Stitched.stages_run;
      c.dups <- c.dups + o.Stitched.duplicate_handoffs;
      c.extra <- c.extra + Stitched.extra_deliveries o p)
    inp.parts

let planning (inp : input) ~rng =
  if not inp.single_in_setup then
    Array.iter
      (fun (root, subscribers) ->
        let tree =
          Spans.span "spt.delivery_tree" (fun () ->
              Spt.delivery_tree inp.graph ~root ~subscribers)
        in
        if tree <> [] then begin
          let cands =
            Spans.span "candidate.build" (fun () ->
                Candidate.build inp.assignment ~tree)
          in
          ignore (Spans.span "select.standard" (fun () -> Select.standard cands))
        end)
      inp.topics;
  if not inp.plan_in_setup then
    Array.iteri
      (fun i (root, subscribers) ->
        if subscribers <> [] then
          ignore
            (Spans.span ~pub:i "stagecut.plan" (fun () ->
                 Stagecut.plan inp.adaptive ~id:i ~rng ~root ~subscribers)))
      inp.topics

let run (inp : input) ~seed ~budget =
  let rng = Rng.of_int (seed + 0x1a7e) in
  planning inp ~rng;
  let net, arena = arena_and_run inp ~budget in
  replay_decides net inp.flat;
  compile_nodes net ~rng ~cap:256;
  flaps net arena ~rng ~n:32;
  stitched_pass inp

(* Partitions of the largest [k] topics, for workloads whose own
   publications are single-filter. *)
let plan_top inp_topics ~adaptive ~seed ~k =
  let sorted =
    List.sort
      (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
      (Array.to_list inp_topics)
  in
  let rng = Rng.of_int (seed + 0x57a9) in
  List.filteri (fun i _ -> i < k) sorted
  |> List.mapi (fun i (root, subscribers) ->
         match Stagecut.plan adaptive ~id:i ~rng ~root ~subscribers with
         | Ok (p, _) -> p
         | Error e -> failwith ("Stagecut.plan: " ^ e))
  |> Array.of_list

let emit_all ~workers ~partitioned =
  let per name = Spans.per_work name in
  let words name = Option.value (Hashtbl.find_opt words_per_pub name) ~default:0.0 in
  emit "fastpath.decide_ns" "ns" (per "fastpath.decide" *. 1e9);
  emit "fastpath.compile_us" "us" (per "fastpath.compile" *. 1e6);
  emit "bitsliced.decide_ns" "ns" (per "bitsliced.decide" *. 1e9);
  emit "bitsliced.compile_us" "us" (per "bitsliced.compile" *. 1e6);
  emit "arena.deliver_us" "us" (per "arena.deliver" *. 1e6);
  emit "arena.minor_words_per_pub" "words" (words "arena.deliver");
  emit "arena.warm_ms" "ms" (per "arena.warm" *. 1e3);
  emit "arena.prepare_us" "us" (per "arena.prepare" *. 1e6);
  emit "run.deliver_us" "us" (per "run.deliver" *. 1e6);
  emit "run.minor_words_per_pub" "words" (words "run.deliver");
  emit "service.create_ms" "ms" (per "service.create" *. 1e3);
  let svc = Spans.find "service.run" in
  let batch_s = svc.Spans.total_s /. float_of_int (max 1 svc.Spans.calls) in
  let jobs_per_batch =
    float_of_int svc.Spans.work /. float_of_int (max 1 svc.Spans.calls)
  in
  emit "service.batch_us" "us" (batch_s *. 1e6);
  (* A service job's single-domain cost: the arena path for counter
     jobs, install + deliver + uninstall for partitions. *)
  let job_s =
    if partitioned then
      let p = Spans.find "stitched.publication" in
      p.Spans.total_s /. float_of_int (max 1 p.Spans.calls)
    else per "arena.deliver"
  in
  emit "service.dispatch_overhead_us" "us"
    ((batch_s -. (jobs_per_batch *. job_s /. float_of_int workers)) *. 1e6);
  let c = stitched_counts in
  let per_pub x = float_of_int x /. float_of_int (max 1 c.pubs) in
  emit "stitched.install_us" "us" (per "stitched.install" *. 1e6);
  emit "stitched.deliver_ms" "ms" (per "stitched.deliver" *. 1e3);
  emit "stitched.uninstall_us" "us" (per "stitched.uninstall" *. 1e6);
  emit "stitched.stages_per_pub" "count" (per_pub c.stages);
  emit "stitched.duplicate_handoffs_per_pub" "count" (per_pub c.dups);
  emit "stitched.extra_deliveries_per_pub" "count" (per_pub c.extra);
  emit "net.fail_link_us" "us" (per "net.fail_link" *. 1e6);
  emit "net.restore_link_us" "us" (per "net.restore_link" *. 1e6);
  emit "spt.delivery_tree_us" "us" (per "spt.delivery_tree" *. 1e6);
  emit "candidate.build_us" "us" (per "candidate.build" *. 1e6);
  emit "select.standard_us" "us" (per "select.standard" *. 1e6);
  emit "stagecut.plan_ms" "ms" (per "stagecut.plan" *. 1e3)
