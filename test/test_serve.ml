(* Tests for Lipsin_serve: the exposition-format conformance linter,
   the snapshot-diff state machine, a live server round-trip over a
   real TCP socket (start, scrape every endpoint, stop), and peers that
   reset, never speak or hang up early, which must not take the server
   down. *)

module Obs = Lipsin_obs.Obs
module Serve = Lipsin_serve.Serve

let with_memory f =
  Obs.Sink.set Obs.Sink.Memory;
  Obs.Trace.set_recording true;
  Fun.protect ~finally:(fun () -> Obs.Sink.set Obs.Sink.Noop) f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- exposition linter ---------------------------------------------- *)

let test_lint_accepts_own_exposition () =
  with_memory (fun () ->
      (* Populate with the nastiest names the registry will hold:
         escaped label values, histograms, multi-label families. *)
      Obs.Counter.add
        (Obs.Counter.make ~help:"with \\ and\nnewline"
           ~labels:[ ("path", "a\\b\"c\nd") ]
           "test_serve_nasty_total")
        3;
      Obs.Histogram.observe (Obs.Histogram.make "test_serve_hist") 1.5;
      let findings = Serve.lint_exposition (Obs.Export.prometheus ()) in
      Alcotest.(check (list string)) "clean" [] findings)

let expect_finding what payload =
  match Serve.lint_exposition payload with
  | [] -> Alcotest.failf "%s: linter accepted a broken payload" what
  | _ -> ()

let test_lint_rejections () =
  expect_finding "sample without TYPE" "foo_total 1\n";
  expect_finding "duplicate TYPE"
    "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n";
  expect_finding "TYPE after samples"
    "# TYPE foo counter\nfoo 1\n# TYPE foo gauge\n";
  expect_finding "bad metric name"
    "# TYPE 9foo counter\n9foo 1\n";
  expect_finding "bad label syntax"
    "# TYPE foo counter\nfoo{bar=unquoted} 1\n";
  expect_finding "unparsable value"
    "# TYPE foo counter\nfoo{a=\"b\"} one\n";
  expect_finding "unterminated label value"
    "# TYPE foo counter\nfoo{a=\"b} 1\n";
  expect_finding "duplicate series"
    "# TYPE foo counter\nfoo{a=\"b\"} 1\nfoo{a=\"b\"} 2\n";
  expect_finding "histogram bucket without le"
    "# TYPE h histogram\nh_bucket{x=\"1\"} 1\nh_sum 1\nh_count 1\n";
  Alcotest.(check (list string)) "a correct payload stays clean" []
    (Serve.lint_exposition
       "# HELP foo a help line\n# TYPE foo counter\nfoo{a=\"b\\\"c\"} 1\n\
        # TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
        h_sum 3.5\nh_count 2\n")

(* ---- snapshot diffs ------------------------------------------------- *)

let test_snapshot_diff () =
  with_memory (fun () ->
      let c = Obs.Counter.make "test_serve_snapshot_total" in
      let state = Serve.make () in
      let first = Serve.snapshot state in
      Alcotest.(check bool) "first snapshot is scrape 1" true
        (contains first "\"scrape\":1");
      let quiet = Serve.snapshot state in
      Alcotest.(check bool) "no delta while idle" false
        (contains quiet "test_serve_snapshot_total");
      Obs.Counter.add c 5;
      let active = Serve.snapshot state in
      Alcotest.(check bool) "bumped counter appears" true
        (contains active "test_serve_snapshot_total");
      Alcotest.(check bool) "with its delta" true (contains active "5"))

(* ---- live server round-trip ----------------------------------------- *)

let test_server_roundtrip () =
  with_memory (fun () ->
      Obs.Counter.add (Obs.Counter.make "test_serve_live_total") 2;
      let state = Serve.make () in
      let server = Serve.start ~port:0 state in
      Fun.protect
        ~finally:(fun () -> Serve.stop server)
        (fun () ->
          let port = Serve.port server in
          Alcotest.(check bool) "ephemeral port bound" true (port > 0);
          let status, body = Serve.get ~port "/healthz" in
          Alcotest.(check int) "healthz 200" 200 status;
          Alcotest.(check bool) "healthz ok" true (contains body "ok");
          let status, body = Serve.get ~port "/metrics" in
          Alcotest.(check int) "metrics 200" 200 status;
          Alcotest.(check (list string)) "exposition lints clean" []
            (Serve.lint_exposition body);
          Alcotest.(check bool) "our counter is served" true
            (contains body "test_serve_live_total");
          let status, body = Serve.get ~port "/snapshot" in
          Alcotest.(check int) "snapshot 200" 200 status;
          Alcotest.(check bool) "snapshot is json" true
            (contains body "\"scrape\"");
          let status, _ = Serve.get ~port "/nosuch" in
          Alcotest.(check int) "unknown path 404" 404 status;
          List.iter
            (fun (path, status, _) ->
              Alcotest.(check int) (path ^ " self-check") 200 status)
            (Serve.self_check server)))

(* ---- misbehaving peers ---------------------------------------------- *)

let with_server f =
  let server = Serve.start ~port:0 (Serve.make ()) in
  Fun.protect ~finally:(fun () -> Serve.stop server) (fun () ->
      f (Serve.port server))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Half a request line, then an RST (SO_LINGER 0) instead of a FIN. *)
let test_reset_peer () =
  with_server (fun port ->
      let fd = connect port in
      ignore (Unix.write_substring fd "GET /hea" 0 8);
      Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
      Unix.close fd;
      let status, _ = Serve.get ~port "/healthz" in
      Alcotest.(check int) "healthz after a reset peer" 200 status)

(* Whole requests for a /metrics body larger than one channel buffer,
   each peer closing without reading: the server's second write meets
   the peer's RST, which raised SIGPIPE and killed the process. *)
let test_hangup_peer () =
  with_memory (fun () ->
      for i = 1 to 1000 do
        Obs.Counter.add
          (Obs.Counter.make (Printf.sprintf "test_serve_bulk_%d_total" i))
          i
      done;
      with_server (fun port ->
          for _ = 1 to 5 do
            let fd = connect port in
            let req = "GET /metrics HTTP/1.1\r\n\r\n" in
            ignore (Unix.write_substring fd req 0 (String.length req));
            Unix.close fd
          done;
          let status, _ = Serve.get ~port "/healthz" in
          Alcotest.(check int) "healthz after peers hung up" 200 status))

(* A peer that connects and sends nothing, and keeps the socket open. *)
let test_silent_peer () =
  with_server (fun port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let status, _ = Serve.get ~port "/healthz" in
          Alcotest.(check int) "healthz beside a silent peer" 200 status))

let () =
  Alcotest.run "serve"
    [
      ( "lint",
        [
          Alcotest.test_case "accepts our exposition" `Quick
            test_lint_accepts_own_exposition;
          Alcotest.test_case "rejects malformed payloads" `Quick
            test_lint_rejections;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "diffs between scrapes" `Quick test_snapshot_diff ] );
      ( "server",
        [
          Alcotest.test_case "live round-trip" `Quick test_server_roundtrip;
          Alcotest.test_case "survives a reset peer" `Quick test_reset_peer;
          Alcotest.test_case "survives a silent peer" `Quick test_silent_peer;
          Alcotest.test_case "survives peers that hang up" `Quick
            test_hangup_peer;
        ] );
    ]
