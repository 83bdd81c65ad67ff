(* The repo benchmark: one workload per run, end-to-end metrics from an
   untraced run, per-layer metrics from a traced one.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-check

   The last line of standard output is the result object
   {correct, attempted, failed, metrics}; earlier lines hold the run's
   provenance and sample counts.  BENCHMARK.json at the repository root
   names the workloads and metrics, and perfbench/MAP.md says why each
   was chosen and which per-layer metric should move which end-to-end
   one. *)

open Common

let setup_reps = 3

type outcome = { correct : bool; attempted : int; failed : int }

let cost (w : Workloads.t) (win : Workloads.window) =
  if w.paced then sliced_pct win.lat 50.0 else 1.0 /. Workloads.rate win

let pct_change ~base x = (x -. base) /. base *. 100.0

let emit_end_to_end ~setup_s (win : Workloads.window) =
  let us x = x *. 1e6 in
  let per_pub x = x /. float_of_int (max 1 win.pubs) in
  emit "setup_s" "s" setup_s;
  emit "pubs_per_s" "1/s" (Workloads.rate win);
  emit "latency_p50_us" "us" (us (sliced_pct win.lat 50.0));
  emit "latency_p90_us" "us" (us (sliced_pct win.lat 90.0));
  emit "flap_stall_p50_us" "us" (us (sliced_pct win.stalls 50.0));
  emit "flap_stall_p90_us" "us" (us (sliced_pct win.stalls 90.0));
  emit "minor_words_per_pub" "words" (per_pub win.words);
  emit "top_heap_mb" "MiB" (top_heap_mb ());
  emit "fpr" "ratio"
    (float_of_int win.tally.(t_fps) /. float_of_int (max 1 win.tally.(t_tests)));
  emit "fwd_efficiency" "ratio"
    (float_of_int win.eff_links /. float_of_int (max 1 win.tally.(t_trav)))

let emit_windows (w : Workloads.t) ~(untraced : Workloads.window)
    ~(traced : Workloads.window) ~(noop : Workloads.window)
    ~(service : Workloads.window) =
  let per_pub x = float_of_int x /. float_of_int (max 1 untraced.pubs) in
  emit "forwarding.link_traversals_per_pub" "count" (per_pub untraced.tally.(t_trav));
  emit "forwarding.membership_tests_per_pub" "count" (per_pub untraced.tally.(t_tests));
  emit "forwarding.false_positives_per_pub" "count" (per_pub untraced.tally.(t_fps));
  emit "forwarding.nodes_reached_per_pub" "count" (per_pub untraced.tally.(t_reached));
  let svc_ratio x = float_of_int x /. float_of_int (max 1 service.pubs) in
  emit "service.steal_ratio" "ratio" (svc_ratio service.steals);
  emit "service.sampled_ratio" "ratio" (svc_ratio service.sampled);
  emit "obs.sink_cost_pct" "%" (pct_change ~base:(cost w noop) (cost w untraced));
  emit "loadgen.late_p99_us" "us" (pct traced.late 99.0 *. 1e6);
  emit "loadgen.batch_mean" "count"
    (float_of_int traced.pubs /. float_of_int (max 1 traced.batches));
  emit "bench.trace_overhead_pct" "%"
    (pct_change ~base:(cost w untraced) (cost w traced))

let run_once ~name ~seed ~seconds ~trace ~tiny ~inject =
  metrics := [];
  Spans.reset ();
  Layers.reset ();
  configure_obs ();
  Spans.enabled := trace;
  (* setup_s: the median of [setup_reps] complete set-ups, each from an
     empty process state to a warmed program; all but the last are
     torn down again. *)
  let times = ref [] and kept = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun (_, teardown) -> teardown ()) !kept;
    let t0 = now () in
    let s = Workloads.setup name ~tiny ~seed ~inject in
    times := (now () -. t0) :: !times;
    kept := Some s
  done;
  let finish, teardown = Option.get !kept in
  let setup_s = median_list !times in
  let w = finish () in
  let pre_failed = w.precheck () in
  let attempted = ref w.precheck_pubs and failed = ref pre_failed in
  let count (win : Workloads.window) =
    attempted := !attempted + win.attempted;
    failed := !failed + win.failed
  in
  (* Each timed window follows an untimed pre-roll of the same loop
     (its publications are still checked), so a ramp at the start of a
     run is not measured, and starts with fresh Obs counters. *)
  let preroll seconds =
    count (w.window (Float.min 1.0 (seconds /. 5.0)));
    Obs.reset ()
  in
  let window seconds =
    preroll seconds;
    w.window seconds
  in
  if not trace then begin
    (* The window is cut into [segments]; where the workload has no
       flaps of its own, a flap-probe piece follows each segment, so the
       two sample the host over the same stretch. *)
    let piece =
      Option.map
        (fun setup_probe ->
          let pre, piece = setup_probe () in
          count pre;
          piece)
        w.flap_probe
    in
    let seg = seconds /. float_of_int Workloads.segments in
    preroll seconds;
    let win =
      Workloads.merge
        (List.init Workloads.segments (fun i ->
             let win = w.window seg in
             match piece with
             | None -> win
             | Some piece ->
               let probe = piece i in
               count probe;
               { win with Workloads.stalls = probe.stalls }))
    in
    count win;
    let stalls = win.stalls in
    (* The p99s are printed for reading, not gated: on a shared 2-vCPU
       VM the paced-zipf latency p99 spread over seeds is above the
       largest bound a metric may have (see MAP.md). *)
    Printf.printf
      "{\"samples\": {\"latency\": %d, \"flap_stall\": %d, \"setup\": %d, \
       \"precheck\": %d, \"batches\": %d, \"flight_dumps\": %d}, \
       \"latency_p99_us\": %.3f, \"flap_stall_p99_us\": %.3f}\n"
      (Array.length win.lat) (Array.length stalls) setup_reps w.precheck_pubs
      win.batches (Obs.Flight.dump_count ())
      (pct win.lat 99.0 *. 1e6)
      (pct stalls 99.0 *. 1e6);
    emit_end_to_end ~setup_s win
  end
  else begin
    let third = seconds /. 3.0 in
    Spans.enabled := false;
    let untraced = window third in
    Spans.enabled := true;
    let traced = window third in
    Spans.enabled := false;
    Obs.Sink.set Obs.Sink.Noop;
    let noop = window third in
    configure_obs ();
    List.iter count [ untraced; traced; noop ];
    Spans.enabled := true;
    let service =
      match w.service_burst with
      | Some burst ->
        let b = burst (Float.min 1.0 third) in
        count b;
        b
      | None -> traced
    in
    Layers.run (w.layer_input ()) ~seed ~budget:(Float.min 0.5 third);
    Spans.enabled := false;
    emit_windows w ~untraced ~traced ~noop ~service;
    Layers.emit_all ~workers:(workers ()) ~partitioned:w.partitioned;
    if not tiny then
      Spans.write
        ~path:(Printf.sprintf ".perfbench_out/spans-%s-%d.jsonl" name seed)
  end;
  teardown ();
  { correct = !failed = 0; attempted = !attempted; failed = !failed }

(* ---- self-check ---- *)

let json_names file key =
  let module Json = Lipsin_reporting.Report.Json in
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse text with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok j -> (
    match Json.member key j with
    | Some (Json.Arr l) ->
      List.map
        (fun m ->
          let get k =
            Option.bind (Json.member k m) Json.to_string_lit
            |> Option.value ~default:""
          in
          (get "name", get "unit"))
        l
    | _ -> failwith (file ^ ": no " ^ key))

(* Every workload at a tiny size: every metric BENCHMARK.json names is
   emitted with its unit in both modes, the oracle passes, and one
   deliberately wrong job makes it fail. *)
let self_check () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expect_names name mode want =
    let got = List.map (fun (n, u, _) -> (n, u)) !metrics in
    List.iter
      (fun (n, u) ->
        match List.assoc_opt n got with
        | None -> problem "%s %s: metric %s missing" name mode n
        | Some u' when u' <> u -> problem "%s %s: %s has unit %s, want %s" name mode n u' u
        | Some _ -> ())
      want;
    if List.length got <> List.length want then
      problem "%s %s: %d metrics emitted, %d named" name mode (List.length got)
        (List.length want)
  in
  let e2e = json_names "BENCHMARK.json" "end_to_end" in
  let layers = json_names "BENCHMARK.json" "per_layer" in
  List.iter
    (fun name ->
      let go ~trace ~inject =
        run_once ~name ~seed:1 ~seconds:0.6 ~trace ~tiny:true ~inject
      in
      let r = go ~trace:false ~inject:false in
      if not r.correct then problem "%s: %d of %d failed" name r.failed r.attempted;
      expect_names name "untraced" e2e;
      let r = go ~trace:true ~inject:false in
      if not r.correct then problem "%s traced: %d of %d failed" name r.failed r.attempted;
      expect_names name "traced" layers;
      let r = go ~trace:false ~inject:true in
      let ratio = float_of_int r.failed /. float_of_int r.attempted in
      Printf.printf "%-17s wrong job injected: failed_ratio %.4f (%d of %d)\n%!"
        name ratio r.failed r.attempted;
      if r.failed = 0 then problem "%s: injected wrong job went unnoticed" name)
    Workloads.names;
  List.iter (Printf.printf "PROBLEM: %s\n") (List.rev !problems);
  if !problems = [] then print_endline "self-check OK" else exit 1

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--self-check", Arg.Set check, " tiny-size self-check of metrics and oracle");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !check then self_check ()
  else begin
    if not (List.mem !workload Workloads.names) then begin
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    end;
    if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "perfbench: --seconds must be > 0 and --trace 0 or 1";
      exit 2
    end;
    let trace = !trace = 1 in
    print_provenance ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace;
    let r =
      run_once ~name:!workload ~seed:!seed ~seconds:!seconds ~trace ~tiny:false
        ~inject:false
    in
    print_result ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
  end
