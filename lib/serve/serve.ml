(* Live metrics serving: a minimal HTTP/1.1 responder over a TCP
   socket, exposing the Obs registry on /metrics (Prometheus text
   exposition), /healthz and /snapshot (JSON diff since the previous
   scrape).  No dependencies beyond unix and threads: the request
   parser only needs the request line, and every response closes the
   connection.  The accept loop runs on one posix thread; handlers
   read the registry, they never write it, so no coordination with the
   forwarding domains is required beyond what Obs already does. *)

module Obs = Lipsin_obs.Obs

(* ---- responses ------------------------------------------------------- *)

type response = { status : int; content_type : string; body : string }

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | _ -> "Internal Server Error"

let text_response ?(status = 200) body =
  { status; content_type = "text/plain; version=0.0.4; charset=utf-8"; body }

let json_response ?(status = 200) body =
  { status; content_type = "application/json"; body }

(* ---- snapshot diffs -------------------------------------------------- *)

(* The /snapshot endpoint reports what moved since the caller's last
   scrape: counter deltas, gauge transitions, histogram count deltas
   with fresh quantiles.  State is one previous-sample map guarded by a
   mutex (scrapes are rare; contention is irrelevant). *)

type t = {
  mu : Mutex.t;
  mutable scrapes : int;
  mutable last : (string * Obs.Export.value) list;  (* keyed rendered id *)
}

let make () = { mu = Mutex.create (); scrapes = 0; last = [] }

let key name labels =
  name ^ "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> k ^ "=" ^ String.escaped v) labels)
  ^ "}"

let json_str s = "\"" ^ Obs.Export.escape_label s ^ "\""

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_str k ^ ":" ^ json_str v) labels)
  ^ "}"

let sample_json name labels ~delta value =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":%s,\"labels\":%s," (json_str name)
       (labels_json labels));
  (match value with
  | Obs.Export.Vcounter v ->
    Buffer.add_string b
      (Printf.sprintf "\"type\":\"counter\",\"value\":%d,\"delta\":%d" v
         (match delta with Some d -> d | None -> v))
  | Obs.Export.Vgauge v ->
    Buffer.add_string b (Printf.sprintf "\"type\":\"gauge\",\"value\":%d" v)
  | Obs.Export.Vhistogram s ->
    Buffer.add_string b
      (Printf.sprintf
         "\"type\":\"histogram\",\"count\":%d,\"delta\":%d,\"mean\":%g,\"p50\":%g,\"p95\":%g,\"p99\":%g,\"p999\":%g,\"max\":%g"
         s.Obs.Histogram.count
         (match delta with Some d -> d | None -> s.Obs.Histogram.count)
         s.Obs.Histogram.mean s.Obs.Histogram.p50 s.Obs.Histogram.p95
         s.Obs.Histogram.p99 s.Obs.Histogram.p999 s.Obs.Histogram.max));
  Buffer.add_string b "}";
  Buffer.contents b

let value_count = function
  | Obs.Export.Vcounter v | Obs.Export.Vgauge v -> v
  | Obs.Export.Vhistogram s -> s.Obs.Histogram.count

let snapshot t =
  let samples = Obs.Export.samples () in
  Mutex.protect t.mu (fun () ->
      let prev = t.last in
      let changed = ref [] in
      List.iter
        (fun (name, labels, value) ->
          let k = key name labels in
          let before =
            match List.assoc_opt k prev with
            | Some old -> Some (value_count old)
            | None -> None
          in
          let cur = value_count value in
          let delta = cur - (match before with Some v -> v | None -> 0) in
          let moved =
            match before with None -> cur <> 0 | Some v -> v <> cur
          in
          if moved then
            changed := sample_json name labels ~delta:(Some delta) value
                       :: !changed)
        samples;
      t.scrapes <- t.scrapes + 1;
      t.last <- List.map (fun (n, l, v) -> (key n l, v)) samples;
      Printf.sprintf
        "{\"scrape\":%d,\"trace_dropped\":%d,\"flight_dumps\":%d,\"flight_frozen\":%b,\"changed\":[%s]}"
        t.scrapes (Obs.Trace.dropped ()) (Obs.Flight.dump_count ())
        (Obs.Flight.frozen ())
        (String.concat "," (List.rev !changed)))

(* ---- routing --------------------------------------------------------- *)

let route t path =
  match path with
  | "/metrics" -> text_response (Obs.Export.prometheus ())
  | "/healthz" ->
    (* Liveness plus the one degraded state worth flagging: a frozen
       flight recorder means an anomaly dump is waiting for a human. *)
    if Obs.Flight.frozen () then
      text_response "ok (flight recorder frozen: anomaly dump pending)\n"
    else text_response "ok\n"
  | "/snapshot" -> json_response (snapshot t)
  | "/" ->
    text_response "lipsin: /metrics /healthz /snapshot\n"
  | _ -> text_response ~status:404 "not found\n"

(* ---- exposition lint ------------------------------------------------- *)

(* Prometheus text-format conformance checks, used by the test suite
   and the CI serve-smoke step.  Returns human-readable findings; [] is
   a clean payload. *)

let is_metric_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let base_family name =
  let strip suffix =
    let n = String.length name and sn = String.length suffix in
    if n > sn && String.equal (String.sub name (n - sn) sn) suffix then
      Some (String.sub name 0 (n - sn))
    else None
  in
  match strip "_bucket" with
  | Some f -> Some (f, `Bucket)
  | None ->
    (match strip "_sum" with
    | Some f -> Some (f, `Sum)
    | None ->
      (match strip "_count" with
      | Some f -> Some (f, `Count)
      | None -> None))

(* Splits a sample line into (name, label-block option, value string);
   validates label syntax as it goes. *)
let parse_sample line =
  let err msg = Error msg in
  match String.index_opt line '{' with
  | Some i ->
    let name = String.sub line 0 i in
    (match String.index_opt line '}' with
    | None -> err "unterminated label block"
    | Some j when j < i -> err "malformed label block"
    | Some j ->
      let labels = String.sub line (i + 1) (j - i - 1) in
      let rest = String.sub line (j + 1) (String.length line - j - 1) in
      let value = String.trim rest in
      if String.equal value "" then err "missing sample value"
      else Ok (name, Some labels, value))
  | None ->
    (match String.index_opt line ' ' with
    | None -> err "sample line without a value"
    | Some i ->
      let name = String.sub line 0 i in
      let value = String.trim (String.sub line i (String.length line - i)) in
      if String.equal value "" then err "missing sample value"
      else Ok (name, None, value))

let valid_labels s =
  (* k="v" pairs separated by commas; values may contain escaped
     quotes.  A tiny state machine rather than a regex. *)
  let n = String.length s in
  let ok = ref true and i = ref 0 in
  if n = 0 then true
  else begin
    while !ok && !i < n do
      (* key *)
      let start = !i in
      while !i < n && (match s.[!i] with
                       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
                       | _ -> false) do incr i done;
      if !i = start || !i >= n || s.[!i] <> '=' then ok := false
      else begin
        incr i;
        if !i >= n || s.[!i] <> '"' then ok := false
        else begin
          incr i;
          let closed = ref false in
          while (not !closed) && !i < n do
            if s.[!i] = '\\' then i := !i + 2
            else if s.[!i] = '"' then closed := true
            else incr i
          done;
          if not !closed then ok := false
          else begin
            incr i;
            if !i < n then
              if s.[!i] = ',' then incr i else ok := false
          end
        end
      end
    done;
    !ok
  end

let valid_value v =
  match v with
  | "+Inf" | "-Inf" | "NaN" -> true
  | _ -> (match float_of_string_opt v with Some _ -> true | None -> false)

let lint_exposition payload =
  let findings = ref [] in
  let note fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let helped : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let sampled : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let family_started : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' payload in
  List.iteri
    (fun ln line ->
      let ln = ln + 1 in
      if String.equal line "" then ()
      else if String.length line >= 7 && String.equal (String.sub line 0 7) "# HELP "
      then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.index_opt rest ' ' with
        | None -> note "line %d: HELP without text" ln
        | Some i ->
          let name = String.sub rest 0 i in
          if not (is_metric_name name) then
            note "line %d: HELP for invalid metric name %S" ln name;
          if Hashtbl.mem helped name then
            note "line %d: duplicate HELP for %s" ln name;
          Hashtbl.replace helped name ()
      end
      else if String.length line >= 7 && String.equal (String.sub line 0 7) "# TYPE "
      then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.split_on_char ' ' rest with
        | [ name; ty ] ->
          if not (is_metric_name name) then
            note "line %d: TYPE for invalid metric name %S" ln name;
          (match ty with
          | "counter" | "gauge" | "histogram" | "summary" | "untyped" -> ()
          | _ -> note "line %d: unknown TYPE %S for %s" ln ty name);
          if Hashtbl.mem types name then
            note "line %d: duplicate TYPE for %s" ln name;
          if Hashtbl.mem family_started name then
            note "line %d: TYPE for %s after its samples" ln name;
          Hashtbl.replace types name ty
        | _ -> note "line %d: malformed TYPE line" ln
      end
      else if String.length line >= 1 && line.[0] = '#' then ()
      else
        match parse_sample line with
        | Error msg -> note "line %d: %s" ln msg
        | Ok (name, labels, value) ->
          if not (is_metric_name name) then
            note "line %d: invalid metric name %S" ln name;
          (match labels with
          | Some l when not (valid_labels l) ->
            note "line %d: malformed labels {%s}" ln l
          | _ -> ());
          if not (valid_value value) then
            note "line %d: unparseable sample value %S" ln value;
          let family, role =
            match base_family name with
            | Some (f, role) when Hashtbl.mem types f -> (f, Some role)
            | _ -> (name, None)
          in
          Hashtbl.replace family_started family ();
          (match Hashtbl.find_opt types family with
          | None -> note "line %d: sample %s without a TYPE" ln name
          | Some ty ->
            (match role with
            | Some _ when not (String.equal ty "histogram") ->
              note "line %d: %s suffix on non-histogram family %s" ln name
                family
            | Some `Bucket ->
              let has_le =
                match labels with
                | Some l ->
                  (* crude but sufficient: an le label key present *)
                  let rec find i =
                    match String.index_from_opt l i 'l' with
                    | Some j when j + 2 < String.length l
                                  && l.[j + 1] = 'e' && l.[j + 2] = '=' ->
                      j = 0 || l.[j - 1] = ',' || find (j + 1)
                    | Some j -> find (j + 1)
                    | None -> false
                  in
                  find 0
                | None -> false
              in
              if not has_le then
                note "line %d: histogram bucket without an le label" ln
            | _ -> ()));
          let series = name ^ (match labels with Some l -> "{" ^ l ^ "}" | None -> "") in
          if Hashtbl.mem sampled series then
            note "line %d: duplicate series %s" ln series;
          Hashtbl.replace sampled series ())
    lines;
  List.rev !findings

(* ---- http ------------------------------------------------------------ *)

let respond oc r =
  output_string oc
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
       r.status (status_text r.status) r.content_type (String.length r.body));
  output_string oc r.body;
  flush oc

(* The accept loop serves one connection at a time, so a peer gets
   this long per read of its request before it is dropped: a silent
   peer must not hold /metrics hostage. *)
let peer_timeout_s = 1.0

(* Whatever one peer does — reset mid-request, go silent, hang up
   before the response — ends with its socket closed and the accept
   loop serving the next connection. *)
let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO peer_timeout_s;
        let request_line = input_line ic in
        let r =
          match String.split_on_char ' ' (String.trim request_line) with
          | [ "GET"; path; _version ] -> route t path
          | [ meth; _; _ ] ->
            text_response ~status:405
              (Printf.sprintf "method %s not allowed\n" meth)
          | _ -> text_response ~status:400 "bad request\n"
        in
        (* Drain remaining headers so the client's write isn't reset
           before it finishes sending. *)
        (try
           let rec drain () =
             let l = input_line ic in
             if not (String.equal (String.trim l) "") then drain ()
           in
           drain ()
         with End_of_file | Sys_error _ | Sys_blocked_io -> ());
        respond oc r
      with End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ ->
        ())

type server = {
  sv_fd : Unix.file_descr;
  sv_port : int;
  sv_stop : bool Atomic.t;
  sv_thread : Thread.t;
}

let start ?(host = "127.0.0.1") ?(port = 0) state =
  let addr = Unix.inet_addr_of_string host in
  (* A peer that hangs up before its response would otherwise kill the
     process with SIGPIPE on the write; ignored, the write raises
     instead and only that connection ends. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 16;
  let actual_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stop_flag = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        let continue = ref true in
        while !continue do
          match Unix.accept fd with
          | client, _ ->
            if Atomic.get stop_flag then begin
              (try Unix.close client with Unix.Unix_error _ -> ());
              continue := false
            end
            else handle_connection state client
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
            continue := false
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
      ()
  in
  { sv_fd = fd; sv_port = actual_port; sv_stop = stop_flag; sv_thread = thread }

let port s = s.sv_port

let stop s =
  Atomic.set s.sv_stop true;
  (* Unblock the accept: connect to ourselves, then close the listener. *)
  (try
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         Unix.connect fd
           (Unix.ADDR_INET (Unix.inet_addr_loopback, s.sv_port)))
   with Unix.Unix_error _ -> ());
  (try Unix.close s.sv_fd with Unix.Unix_error _ -> ());
  Thread.join s.sv_thread

(* ---- client ---------------------------------------------------------- *)

let client_timeout_s = 5.0

(* A one-shot GET, enough for the self check and the CI smoke step. *)
let get ?(host = "127.0.0.1") ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* Bounded like the server side: a wedged server fails the scrape
         instead of hanging the caller. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO client_timeout_s;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      let oc = Unix.out_channel_of_descr fd in
      output_string oc
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
           path host);
      flush oc;
      let ic = Unix.in_channel_of_descr fd in
      let status =
        match String.split_on_char ' ' (input_line ic) with
        | _ :: code :: _ ->
          (match int_of_string_opt code with Some c -> c | None -> 0)
        | _ -> 0
      in
      (* headers until the blank line, then the body to EOF *)
      let rec headers () =
        let l = input_line ic in
        if not (String.equal (String.trim l) "") then headers ()
      in
      (try headers () with End_of_file -> ());
      let body = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel body ic 1
         done
       with End_of_file -> ());
      (status, Buffer.contents body))

let self_check server =
  List.map
    (fun path ->
      let status, body = get ~port:server.sv_port path in
      (path, status, body))
    [ "/healthz"; "/metrics"; "/snapshot" ]
