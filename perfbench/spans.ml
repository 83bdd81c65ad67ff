(* In-memory span recorder for the traced run.

   A span is one timed call into a layer's public function, recorded
   from the benchmark's side of the call: name, start, end, the span
   that was open when it started (its parent), the publication id it
   belongs to, and a work count (decisions replayed, jobs in a batch,
   ...).  Spans are kept in preallocated arrays and written out when the
   run ends; nothing is recorded while [enabled] is false, so the
   untraced windows pay one branch per call site. *)

let capacity = 200_000
let enabled = ref false
let names : string array = Array.make capacity ""
let starts = Array.make capacity 0.0
let ends = Array.make capacity 0.0
let parents = Array.make capacity (-1)
let pubs = Array.make capacity (-1)
let counts = Array.make capacity 0
let n = ref 0
let dropped = ref 0
let stack = ref []

let enter ?(pub = -1) name =
  if not !enabled then -1
  else if !n >= capacity then begin
    incr dropped;
    -1
  end
  else begin
    let id = !n in
    incr n;
    names.(id) <- name;
    parents.(id) <- (match !stack with p :: _ -> p | [] -> -1);
    pubs.(id) <- pub;
    counts.(id) <- 1;
    stack := id :: !stack;
    starts.(id) <- Common.now ();
    id
  end

let leave ?count id =
  if id >= 0 then begin
    ends.(id) <- Common.now ();
    (match count with Some c -> counts.(id) <- c | None -> ());
    match !stack with _ :: rest -> stack := rest | [] -> ()
  end

let span ?pub ?count name f =
  let id = enter ?pub name in
  let r = f () in
  leave ?count id;
  r

(* Self time: a span's duration minus the part its children cover
   (children never outlive their parent, so their durations add). *)
let self_times () =
  let self = Array.init !n (fun i -> ends.(i) -. starts.(i)) in
  for i = 0 to !n - 1 do
    let p = parents.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (ends.(i) -. starts.(i))
  done;
  self

type layer = { calls : int; work : int; self_s : float; total_s : float }

(* Per span name: number of calls, summed work count, self and total
   seconds. *)
let by_name () =
  let self = self_times () in
  let tbl = Hashtbl.create 64 in
  for i = 0 to !n - 1 do
    let l =
      match Hashtbl.find_opt tbl names.(i) with
      | Some l -> l
      | None -> { calls = 0; work = 0; self_s = 0.0; total_s = 0.0 }
    in
    Hashtbl.replace tbl names.(i)
      {
        calls = l.calls + 1;
        work = l.work + counts.(i);
        self_s = l.self_s +. self.(i);
        total_s = l.total_s +. (ends.(i) -. starts.(i));
      }
  done;
  tbl

let find name =
  Option.value (Hashtbl.find_opt (by_name ()) name)
    ~default:{ calls = 0; work = 0; self_s = 0.0; total_s = 0.0 }

(* Mean self time per unit of work, in seconds. *)
let per_work name =
  let l = find name in
  if l.work = 0 then 0.0 else l.self_s /. float_of_int l.work

let reset () =
  n := 0;
  dropped := 0;
  stack := []

(* The span log as JSON lines (one span per line after a header line
   holding the per-name self-time table), written under [dir]. *)
let write ~path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  let tbl = by_name () in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort compare rows in
  Printf.fprintf oc "{\"spans\": %d, \"dropped\": %d, \"self_time\": {%s}}\n"
    !n !dropped
    (String.concat ", "
       (List.map
          (fun (k, l) ->
            Printf.sprintf
              "%S: {\"calls\": %d, \"work\": %d, \"self_us\": %.3f, \
               \"total_us\": %.3f}"
              k l.calls l.work (l.self_s *. 1e6) (l.total_s *. 1e6))
          rows));
  let t0 = if !n > 0 then starts.(0) else 0.0 in
  for i = 0 to !n - 1 do
    Printf.fprintf oc
      "{\"id\": %d, \"name\": %S, \"start_us\": %.3f, \"end_us\": %.3f, \
       \"parent\": %d, \"pub\": %d, \"count\": %d}\n"
      i names.(i)
      ((starts.(i) -. t0) *. 1e6)
      ((ends.(i) -. t0) *. 1e6)
      parents.(i) pubs.(i) counts.(i)
  done;
  close_out oc
