(* The persistent forwarding service must be a pure performance
   transform: for any worker count, engine and steal interleaving, the
   delivery sets and counter totals must equal sequential Run.deliver
   bit-for-bit.  Plus the arena path (Run.deliver_into), untraced and
   traced, against the allocating path on the same inputs, pool-reuse
   accounting, and
   partitioned (stitched) batches against sequential Stitched.deliver. *)

module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Partition = Lipsin_bloom.Partition
module Graph = Lipsin_topology.Graph
module Generator = Lipsin_topology.Generator
module Spt = Lipsin_topology.Spt
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Adaptive = Lipsin_core.Adaptive
module Stagecut = Lipsin_core.Stagecut
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Service = Lipsin_sim.Service
module Stitched = Lipsin_sim.Stitched
module Scenario = Lipsin_workload.Scenario
module Obs = Lipsin_obs.Obs
module Rng = Lipsin_util.Rng

(* A job pool over a random topology: mixed fan-outs (a few huge trees
   so shard skew and steals actually happen) spread over all d tables. *)
let make_jobs seed ~nodes ~count =
  let rng = Rng.of_int seed in
  let extra = 1 + Rng.int rng nodes in
  let graph =
    Generator.pref_attach ~rng ~nodes ~edges:(nodes - 1 + extra)
      ~max_degree:10 ()
  in
  let d = Lit.default.Lit.d in
  let asg = Assignment.make Lit.default (Rng.split rng) graph in
  let jobs =
    Array.init count (fun i ->
        (* Every 8th job is a near-broadcast: the heavy tail that makes
           contiguous sharding skewed. *)
        let users =
          if i mod 8 = 0 then 2 + (nodes / 2) else 2 + Rng.int rng 6
        in
        let picks = Rng.sample rng users (Graph.node_count graph) in
        let tree =
          Spt.delivery_tree graph ~root:picks.(0)
            ~subscribers:(Array.to_list (Array.sub picks 1 (users - 1)))
        in
        let table = i mod d in
        let c = Candidate.build_one asg ~tree ~table in
        {
          Service.job_src = picks.(0);
          job_table = table;
          job_zfilter = c.Candidate.zfilter;
          job_tree = tree;
        })
  in
  (asg, jobs)

(* Sequential ground truth on a Net configured exactly like a service
   worker's (loop prevention off). *)
let sequential ~engine asg jobs =
  let net = Net.make ~loop_prevention:false asg in
  Array.map
    (fun j ->
      Run.deliver ~engine net ~src:j.Service.job_src ~table:j.Service.job_table
        ~zfilter:j.Service.job_zfilter ~tree:j.Service.job_tree)
    jobs

let sum f outcomes = Array.fold_left (fun acc o -> acc + f o) 0 outcomes

let reached_list (o : Run.outcome) =
  let acc = ref [] in
  Array.iteri (fun v r -> if r then acc := v :: !acc) o.Run.reached;
  List.rev !acc

(* --- totals: service == sequential, any worker count / engine --- *)

let check_totals name (st : Service.stats) outcomes =
  let check what got want =
    Alcotest.(check int) (Printf.sprintf "%s: %s" name what) want got
  in
  check "jobs" st.Service.st_jobs (Array.length outcomes);
  check "link traversals" st.Service.st_link_traversals
    (sum (fun o -> o.Run.link_traversals) outcomes);
  check "false positives" st.Service.st_false_positives
    (sum (fun o -> o.Run.false_positives) outcomes);
  check "membership tests" st.Service.st_membership_tests
    (sum (fun o -> o.Run.membership_tests) outcomes);
  check "fill drops" st.Service.st_fill_drops
    (sum (fun o -> o.Run.fill_drops) outcomes);
  check "loop drops" st.Service.st_loop_drops
    (sum (fun o -> o.Run.loop_drops) outcomes);
  check "local deliveries" st.Service.st_local_deliveries
    (sum (fun o -> o.Run.local_deliveries) outcomes);
  check "nodes reached" st.Service.st_nodes_reached
    (sum
       (fun o ->
         let n = ref 0 in
         Array.iter (fun r -> if r then incr n) o.Run.reached;
         !n)
       outcomes)

let test_totals_match_sequential () =
  let asg, jobs = make_jobs 11 ~nodes:60 ~count:96 in
  List.iter
    (fun engine ->
      let seq = sequential ~engine asg jobs in
      List.iter
        (fun workers ->
          let svc = Service.create ~workers ~engine asg in
          let st = Service.run svc jobs in
          Service.shutdown svc;
          check_totals
            (Printf.sprintf "%d workers" workers)
            st seq)
        [ 1; 2; 5 ])
    [ `Reference; `Fast; `Bitsliced ]

(* --- delivery sets: run_collect == sequential, bit-for-bit --- *)

let test_delivery_sets_match_sequential () =
  let asg, jobs = make_jobs 23 ~nodes:50 ~count:64 in
  List.iter
    (fun engine ->
      let seq = sequential ~engine asg jobs in
      let svc = Service.create ~workers:3 ~engine asg in
      let got = Array.make (Array.length jobs) None in
      let st =
        Service.run_collect svc jobs ~f:(fun i o -> got.(i) <- Some o)
      in
      Service.shutdown svc;
      Alcotest.(check int) "all jobs ran" (Array.length jobs)
        st.Service.st_jobs;
      Array.iteri
        (fun i o ->
          match got.(i) with
          | None -> Alcotest.failf "job %d never delivered" i
          | Some g ->
            Alcotest.(check (list int))
              (Printf.sprintf "job %d delivery set" i)
              (reached_list o) (reached_list g);
            Alcotest.(check int)
              (Printf.sprintf "job %d traversals" i)
              o.Run.link_traversals g.Run.link_traversals)
        seq)
    [ `Reference; `Fast; `Bitsliced ]

(* --- shard counts and steal order must not change totals --- *)

let test_worker_count_invariance () =
  let asg, jobs = make_jobs 37 ~nodes:70 ~count:120 in
  let strip (st : Service.stats) =
    ( st.Service.st_jobs,
      st.Service.st_link_traversals,
      st.Service.st_false_positives,
      st.Service.st_membership_tests,
      st.Service.st_fill_drops,
      st.Service.st_loop_drops,
      st.Service.st_local_deliveries,
      st.Service.st_nodes_reached )
  in
  let run workers =
    let svc = Service.create ~workers ~engine:`Fast asg in
    (* Two batches through the same pool: totals per batch must be
       identical — nothing leaks between batches. *)
    let a = Service.run svc jobs in
    let b = Service.run svc jobs in
    Service.shutdown svc;
    Alcotest.(check bool) "batch totals repeat" true (strip a = strip b);
    strip a
  in
  let one = run 1 in
  List.iter
    (fun w -> Alcotest.(check bool) "sharding invariant" true (run w = one))
    [ 2; 4; 7 ]

(* --- the pool is persistent: no respawn per batch --- *)

let test_pool_reuse () =
  Obs.Sink.set Obs.Sink.Memory;
  let asg, jobs = make_jobs 5 ~nodes:30 ~count:16 in
  let spawned = Obs.Counter.make "lipsin_service_workers_spawned_total" in
  let before = Obs.Counter.value spawned in
  let svc = Service.create ~workers:2 ~engine:`Fast asg in
  for _ = 1 to 10 do
    ignore (Service.run svc jobs)
  done;
  Service.shutdown svc;
  Alcotest.(check int) "workers spawned once, ever" 2
    (Obs.Counter.value spawned - before);
  Alcotest.check_raises "run after shutdown raises"
    (Invalid_argument "Service: the pool is shut down") (fun () ->
      ignore (Service.run svc jobs));
  (* Idempotent. *)
  Service.shutdown svc

(* --- arena path == allocating path on the same inputs --- *)

(* Obs counter movements over [f ()], keyed by rendered series, zero
   deltas dropped. *)
let counter_deltas f =
  let counters () =
    List.filter_map
      (function
        | name, labels, Obs.Export.Vcounter v ->
          let key =
            name ^ String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf ",%s=%s" k v) labels)
          in
          Some (key, v)
        | _ -> None)
      (Obs.Export.samples ())
  in
  let before = counters () in
  f ();
  List.filter_map
    (fun (k, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt k before) in
      if d = 0 then None else Some (k, d))
    (counters ())

(* A packet's trace events with the per-publication identity (packet id,
   ring sequence number) blanked, so two runs compare field by field. *)
let hops packet =
  List.map
    (fun e -> { e with Obs.Trace.ev_packet = 0; ev_seq = 0 })
    (Obs.Trace.packet_events packet)

let trace_event =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Obs.Trace.to_string e))
    ( = )

let test_deliver_into_matches_deliver () =
  Obs.Sink.set Obs.Sink.Memory;
  Obs.Trace.set_recording true;
  let asg, jobs = make_jobs 53 ~nodes:60 ~count:48 in
  let net = Net.make ~loop_prevention:false asg in
  let graph = Net.graph net in
  let arena = Arena.create net in
  List.iter
    (fun (engine, traced) ->
      Arena.warm arena engine;
      Array.iteri
        (fun i j ->
          let ctx () = if traced then Obs.Trace.forced () else Obs.Trace.off in
          let o = ref None in
          let run_deltas =
            counter_deltas (fun () ->
                o :=
                  Some
                    (Run.deliver
                       ~engine:(engine :> Run.engine)
                       ~trace:(ctx ()) net ~src:j.Service.job_src
                       ~table:j.Service.job_table
                       ~zfilter:j.Service.job_zfilter ~tree:j.Service.job_tree))
          in
          let o = Option.get !o in
          let arena_ctx = ctx () in
          let arena_deltas =
            counter_deltas (fun () ->
                Run.deliver_into ~engine ~trace:arena_ctx arena
                  ~src:j.Service.job_src ~table:j.Service.job_table
                  ~zfilter:j.Service.job_zfilter ~tree:j.Service.job_tree)
          in
          let name what =
            Printf.sprintf "job %d%s: %s" i
              (if traced then " traced" else "")
              what
          in
          Alcotest.(check (array bool))
            (name "delivery set")
            o.Run.reached (Arena.reached_copy arena);
          Alcotest.(check int)
            (name "traversals")
            o.Run.link_traversals arena.Arena.link_traversals;
          Alcotest.(check int)
            (name "false positives")
            o.Run.false_positives arena.Arena.false_positives;
          Alcotest.(check int)
            (name "membership tests")
            o.Run.membership_tests arena.Arena.membership_tests;
          Alcotest.(check int)
            (name "fill drops")
            o.Run.fill_drops arena.Arena.fill_drops;
          Alcotest.(check int)
            (name "local deliveries")
            o.Run.local_deliveries arena.Arena.local_deliveries;
          Alcotest.(check (list (pair string int)))
            (name "Obs counter deltas")
            run_deltas arena_deltas;
          if traced then begin
            let packet = arena_ctx.Obs.Trace.tc_packet in
            Alcotest.(check (list trace_event))
              (name "trace events")
              (hops o.Run.packet_id) (hops packet);
            let expected = ref [] in
            Array.iteri
              (fun v r -> if r then expected := v :: !expected)
              (Arena.reached_copy arena);
            let verdict =
              Obs.Span.crosscheck
                ~dst_of:(fun l -> (Graph.link graph l).Graph.dst)
                ~expected:(List.rev !expected) (Obs.Span.of_packet packet)
            in
            if not verdict.Obs.Span.vd_ok then
              Alcotest.failf "%s" (name (Obs.Span.verdict_to_string verdict))
          end)
        jobs)
    (List.concat_map
       (fun e -> [ (e, false); (e, true) ])
       [ `Fast; `Bitsliced; `Auto ]);
  Obs.Sink.set Obs.Sink.Noop

(* --- partitioned batches == sequential Stitched.deliver --- *)

(* Counter deltas that describe the publications themselves, comparable
   across engines and executors: engine labels are dropped and the three
   engines' decision totals merged (each engine registers its meters
   under its own name or label), and the machinery counters — compiles,
   engine creation and the service's own bookkeeping — are left out. *)
let publication_deltas deltas =
  let starts_with p k =
    String.length k >= String.length p && String.sub k 0 (String.length p) = p
  in
  let machinery =
    [ "lipsin_service_"; "lipsin_fastpath_compiles_total";
      "lipsin_bitsliced_compiles_total"; "lipsin_engine_creates_total" ]
  in
  let decisions =
    [ "lipsin_node_engine_decisions_total"; "lipsin_fastpath_decisions_total";
      "lipsin_bitsliced_decisions_total" ]
  in
  let normalise k =
    if List.mem k decisions then "decisions"
    else
      String.concat ","
        (List.filter
           (fun part -> not (starts_with "engine=" part))
           (String.split_on_char ',' k))
  in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun (k, d) ->
      if not (List.exists (fun p -> starts_with p k) machinery) then begin
        let k = normalise k in
        Hashtbl.replace merged k
          (d + Option.value ~default:0 (Hashtbl.find_opt merged k))
      end)
    deltas;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.of_seq (Hashtbl.to_seq merged))

let check_stitched name (want : Stitched.outcome) (got : Stitched.outcome) =
  let int what a b = Alcotest.(check int) (name ^ ": " ^ what) a b in
  Alcotest.(check (array int)) (name ^ ": delivered") want.Stitched.delivered
    got.Stitched.delivered;
  int "stages run" want.Stitched.stages_run got.Stitched.stages_run;
  Alcotest.(check (list int)) (name ^ ": stage order")
    want.Stitched.stage_order got.Stitched.stage_order;
  int "duplicate handoffs" want.Stitched.duplicate_handoffs
    got.Stitched.duplicate_handoffs;
  int "missed stages" want.Stitched.missed_stages got.Stitched.missed_stages;
  int "foreign hits" want.Stitched.foreign_hits got.Stitched.foreign_hits;
  int "subscribers missed" want.Stitched.subscribers_missed
    got.Stitched.subscribers_missed;
  int "traversals" want.Stitched.link_traversals got.Stitched.link_traversals;
  int "false positives" want.Stitched.false_positives
    got.Stitched.false_positives;
  int "membership tests" want.Stitched.membership_tests
    got.Stitched.membership_tests;
  int "fill drops" want.Stitched.fill_drops got.Stitched.fill_drops;
  int "loop drops" want.Stitched.loop_drops got.Stitched.loop_drops;
  (* Packet ids are per-publication identities; whether one was drawn
     is not — every publication here is sampled. *)
  Alcotest.(check bool) (name ^ ": sampled") (want.Stitched.packet_id >= 0)
    (got.Stitched.packet_id >= 0);
  Alcotest.(check (list string)) (name ^ ": trace anomalies")
    want.Stitched.trace_anomalies got.Stitched.trace_anomalies

(* Six stage-cut partitions of decreasing audience on one two-tier
   topology. *)
let partitions () =
  let g, hosts =
    Scenario.two_tier ~seed:77 ~core:60 ~core_edges:120 ~max_degree:16
      ~hosts:400 ()
  in
  let adaptive = Adaptive.make ~d:2 ~k:5 (Rng.of_int 78) g in
  let plan i subscribers =
    match
      Stagecut.plan adaptive ~id:i ~rng:(Rng.of_int (79 + i)) ~root:i
        ~subscribers
    with
    | Ok (part, _) -> part
    | Error e -> Alcotest.failf "Stagecut.plan: %s" e
  in
  ( adaptive,
    Array.init 6 (fun i ->
        plan i (List.filteri (fun j _ -> j mod (i + 1) = 0) hosts)) )

let test_partitioned_matches_sequential () =
  let adaptive, parts = partitions () in
  Obs.Sink.set Obs.Sink.Memory;
  Obs.Trace.set_recording true;
  Obs.Trace.set_sampling 1;
  Fun.protect ~finally:(fun () -> Obs.Sink.set Obs.Sink.Noop) (fun () ->
      let stitched = Stitched.make ~loop_prevention:false adaptive in
      let seq = ref [||] in
      let seq_deltas =
        counter_deltas (fun () ->
            seq :=
              Array.map
                (fun p ->
                  Stitched.install stitched p;
                  let o = Stitched.deliver ~engine:`Reference stitched p in
                  Stitched.uninstall stitched p;
                  o)
                parts)
      in
      List.iter
        (fun (engine, label) ->
          let svc =
            Service.create ~workers:3 ~engine ~adaptive
              (Adaptive.assignment adaptive
                 ~m:(List.hd (Adaptive.widths adaptive)))
          in
          let got = Array.make (Array.length parts) None in
          let run () =
            counter_deltas (fun () ->
                let st =
                  Service.run_partitioned svc parts ~f:(fun i o ->
                      got.(i) <- Some o)
                in
                Alcotest.(check int) "all partitions ran" (Array.length parts)
                  st.Service.st_jobs)
          in
          let cold = run () in
          (* Every width is warm now: stitch installs patch the pinned
             engines and nothing compiles. *)
          let warm = run () in
          Service.shutdown svc;
          Alcotest.(check int)
            (label ^ ": no compile once warm") 0
            (Option.value ~default:0
               (List.assoc_opt "lipsin_fastpath_compiles_total" warm)
            + Option.value ~default:0
                (List.assoc_opt "lipsin_bitsliced_compiles_total" warm));
          List.iter
            (fun (what, d) ->
              Alcotest.(check (list (pair string int)))
                (Printf.sprintf "%s: %s Obs counter deltas" label what)
                (publication_deltas seq_deltas) (publication_deltas d))
            [ ("cold", cold); ("warm", warm) ];
          Array.iteri
            (fun i o ->
              match o with
              | None -> Alcotest.failf "partition %d never delivered" i
              | Some (o : Stitched.outcome) ->
                check_stitched
                  (Printf.sprintf "%s partition %d" label i)
                  !seq.(i) o;
                (match Stitched.exactly_once o parts.(i) with
                | Ok () -> ()
                | Error e ->
                  Alcotest.failf "partition %d: exactly-once: %s" i e))
            got)
        [ (`Fast, "fast"); (`Bitsliced, "bitsliced"); (`Auto, "auto") ])

(* --- a raising job: the pool reports it and stays usable --- *)

(* A stitched publication that raises mid-delivery must still be
   uninstalled.  The bad copy of partition 0 has a foreign id and a
   stage-0 filter of the wrong width, so its deliver raises after every
   entry went in; an entry left behind would turn up as a foreign hit
   in the next publication of partition 0 (same nonces, same nodes). *)
let test_raising_partition () =
  let adaptive, parts = partitions () in
  let p = parts.(0) in
  let stages = Array.copy p.Partition.stages in
  stages.(0) <- { (stages.(0)) with Partition.filter = Zfilter.create ~m:512 };
  let bad = { p with Partition.id = 99; stages } in
  let svc =
    Service.create ~workers:1 ~engine:`Fast ~adaptive
      (Adaptive.assignment adaptive ~m:(List.hd (Adaptive.widths adaptive)))
  in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      (match Service.run_partitioned svc [| bad |] ~f:(fun _ _ -> ()) with
      | _ -> Alcotest.fail "bad-width stage did not raise"
      | exception Invalid_argument _ -> ());
      let got = ref None in
      ignore (Service.run_partitioned svc [| p |] ~f:(fun _ o -> got := Some o));
      match !got with
      | None -> Alcotest.fail "partition never delivered"
      | Some o ->
        Alcotest.(check int) "no stitch entry left behind" 0
          o.Stitched.foreign_hits;
        (match Stitched.exactly_once o p with
        | Ok () -> ()
        | Error e -> Alcotest.failf "exactly-once: %s" e))

let test_raising_job () =
  let asg, jobs = make_jobs 19 ~nodes:40 ~count:32 in
  let seq = sequential ~engine:`Fast asg jobs in
  (* A zFilter wider than the assignment's: Fastpath.decide refuses it. *)
  let bad =
    { (jobs.(0)) with Service.job_zfilter = Zfilter.create ~m:512 }
  in
  List.iter
    (fun workers ->
      let svc = Service.create ~workers ~engine:`Fast asg in
      Fun.protect
        ~finally:(fun () -> Service.shutdown svc)
        (fun () ->
          List.iter
            (fun batch ->
              match Service.run svc batch with
              | _ -> Alcotest.failf "%d workers: bad-width job did not raise" workers
              | exception Invalid_argument _ -> ())
            [ [| bad |]; Array.append jobs [| bad |] ];
          check_totals
            (Printf.sprintf "%d workers, after a raise" workers)
            (Service.run svc jobs) seq))
    [ 1; 2 ]

(* --- property: random scenarios, random worker counts --- *)

let prop_service_matches_sequential =
  QCheck.Test.make ~name:"service == sequential Run.deliver (any shards)"
    ~count:12
    QCheck.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, workers) ->
      let asg, jobs = make_jobs seed ~nodes:40 ~count:40 in
      let seq = sequential ~engine:`Fast asg jobs in
      let svc = Service.create ~workers ~engine:`Fast asg in
      let st = Service.run svc jobs in
      Service.shutdown svc;
      st.Service.st_jobs = Array.length jobs
      && st.Service.st_link_traversals
         = sum (fun o -> o.Run.link_traversals) seq
      && st.Service.st_false_positives
         = sum (fun o -> o.Run.false_positives) seq
      && st.Service.st_membership_tests
         = sum (fun o -> o.Run.membership_tests) seq
      && st.Service.st_nodes_reached
         = sum
             (fun o ->
               let n = ref 0 in
               Array.iter (fun r -> if r then incr n) o.Run.reached;
               !n)
             seq)

let () =
  Alcotest.run "service"
    [
      ( "differential",
        [
          Alcotest.test_case "totals == sequential (engines x workers)" `Quick
            test_totals_match_sequential;
          Alcotest.test_case "delivery sets == sequential" `Quick
            test_delivery_sets_match_sequential;
          Alcotest.test_case "worker count invariance" `Quick
            test_worker_count_invariance;
          QCheck_alcotest.to_alcotest prop_service_matches_sequential;
        ] );
      ( "arena",
        [
          Alcotest.test_case "deliver_into == deliver" `Quick
            test_deliver_into_matches_deliver;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "pool reuse + shutdown" `Quick test_pool_reuse;
          Alcotest.test_case "a raising job raises, pool survives" `Quick
            test_raising_job;
          Alcotest.test_case "a raising stitched publication is uninstalled"
            `Quick test_raising_partition;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "run_partitioned == Stitched.deliver" `Quick
            test_partitioned_matches_sequential;
        ] );
    ]
