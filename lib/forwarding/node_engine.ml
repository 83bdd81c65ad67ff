module Rng = Lipsin_util.Rng
module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Assignment = Lipsin_core.Assignment
module Obs = Lipsin_obs.Obs

(* Telemetry twins of Fastpath's fast-labelled metrics: same names and
   per-decision semantics under [engine="reference"], so the
   differential suite can assert the two engines produce identical
   counter deltas for the same packet history. *)
let m_decisions =
  Obs.Counter.make ~help:"Reference (slow path) forwarding decisions"
    "lipsin_node_engine_decisions_total"

let m_drop_fill =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "reference"); ("reason", "fill") ]
    "lipsin_drops_total"

let m_drop_loop =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "reference"); ("reason", "loop") ]
    "lipsin_drops_total"

let m_drop_bad_table =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "reference"); ("reason", "bad-table") ]
    "lipsin_drops_total"

let m_loop_hits =
  Obs.Counter.make ~help:"Loop-cache lookups that found a live entry"
    ~labels:[ ("engine", "reference") ]
    "lipsin_loop_cache_hits_total"

let m_loop_suspected =
  Obs.Counter.make ~help:"Decisions that cached a suspected loop"
    ~labels:[ ("engine", "reference") ]
    "lipsin_loop_suspected_total"

let m_block_vetoes =
  Obs.Counter.make ~help:"Matched ports suppressed by a negative Link ID"
    ~labels:[ ("engine", "reference") ]
    "lipsin_block_vetoes_total"

let m_local =
  Obs.Counter.make ~help:"Decisions that matched the node-local LIT"
    ~labels:[ ("engine", "reference") ]
    "lipsin_local_deliveries_total"

let m_services =
  Obs.Counter.make ~help:"Service endpoints matched"
    ~labels:[ ("engine", "reference") ]
    "lipsin_service_matches_total"

let m_stitches =
  Obs.Counter.make ~help:"Partition stitch entries matched"
    ~labels:[ ("engine", "reference") ]
    "lipsin_stitch_matches_total"

let h_admitted =
  Obs.Histogram.make ~help:"Out-links admitted per forwarding decision"
    ~labels:[ ("engine", "reference") ]
    "lipsin_admitted_links"

type drop_reason = Fill_limit_exceeded | Loop_detected | Bad_table

type verdict = {
  forward_on : Graph.link list;
  deliver_local : bool;
  services_matched : string list;
  stitches_matched : (int * int) list;
  loop_suspected : bool;
  drop : drop_reason option;
  false_positive_tests : int;
}

type port = {
  link : Graph.link;
  tags : Bitvec.t array;  (* one per table *)
  in_tags : Bitvec.t array;  (* reverse direction's tags: incoming LITs *)
  mutable up : bool;
  (* Negative Link IDs: per-table optional veto patterns (Sec. 3.3.4).
     [None] in a slot means that table carries no veto for this
     entry. *)
  mutable blocks : Bitvec.t option array list;
}

type virtual_entry = {
  v_nonce : int64;
  v_tags : Bitvec.t array;
  v_out : Graph.link list;
}

type service = { s_nonce : int64; s_tags : Bitvec.t array; s_name : string }

(* Stitch entries for partitioned zFilters: when a packet's filter
   covers the parent stage's egress LIT, delivery restarts here with
   stage [st_next] of partition [st_partition]. *)
type stitch = {
  st_nonce : int64;
  st_tags : Bitvec.t array;
  st_partition : int;
  st_next : int;
}

type t = {
  node : Graph.node;
  params : Lit.params;
  d : int;
  fill_limit : float;
  ports : port array;
  mutable virtuals : virtual_entry list;
  mutable services : service list;
  mutable stitches : stitch list;
  local : Lit.t;
  loop_prevention : bool;
  (* zFilter bytes -> (arrival link index, insertion tick).  The paper
     caches "for a short period of time": a loop is the SAME packet
     returning, so entries are valid within the current tick (one
     packet flight — the simulator ticks once per delivery) plus
     [loop_ttl] extra ticks of grace. *)
  loop_cache : (string, int * int) Hashtbl.t;
  loop_queue : string Queue.t;  (* FIFO eviction *)
  loop_capacity : int;
  loop_ttl : int;
  mutable tick_count : int;
}

let create ?(fill_limit = 0.7) ?(loop_cache_capacity = 1024)
    ?(loop_cache_ttl = 0) ?(loop_prevention = true) assignment node =
  let graph = Assignment.graph assignment in
  let params = Assignment.params assignment in
  let make_port link =
    let reverse = Graph.reverse_link graph link in
    {
      link;
      tags = Lit.tags (Assignment.lit assignment link);
      in_tags = Lit.tags (Assignment.lit assignment reverse);
      up = true;
      blocks = [];
    }
  in
  let ports = Array.of_list (List.map make_port (Graph.out_links graph node)) in
  (* The local Link ID's nonce is derived from the node id so that
     control-plane tools can recompute it; uniqueness only needs to be
     statistical. *)
  let local =
    Lit.generate params ~nonce:(Rng.mix64 (Int64.of_int (node + 0x51EE7)))
  in
  {
    node;
    params;
    d = params.Lit.d;
    fill_limit;
    ports;
    virtuals = [];
    services = [];
    stitches = [];
    local;
    loop_prevention;
    loop_cache = Hashtbl.create 64;
    loop_queue = Queue.create ();
    loop_capacity = loop_cache_capacity;
    loop_ttl = loop_cache_ttl;
    tick_count = 0;
  }

let node t = t.node
let local_lit t = t.local
let table_count t = t.d
let tick t = t.tick_count <- t.tick_count + 1

let find_port t link =
  let found = ref None in
  Array.iter
    (fun p -> if p.link.Graph.index = link.Graph.index then found := Some p)
    t.ports;
  match !found with
  | Some p -> p
  | None -> invalid_arg "Node_engine: link is not an outgoing link of this node"

let fail_link t link = (find_port t link).up <- false
let restore_link t link = (find_port t link).up <- true

let install_virtual t lit ~out_links =
  List.iter (fun l -> ignore (find_port t l)) out_links;
  t.virtuals <-
    { v_nonce = Lit.nonce lit; v_tags = Lit.tags lit; v_out = out_links }
    :: t.virtuals

let remove_virtual t lit =
  let nonce = Lit.nonce lit in
  t.virtuals <- List.filter (fun v -> not (Int64.equal v.v_nonce nonce)) t.virtuals

let virtual_count t = List.length t.virtuals

let install_service t lit ~name =
  t.services <-
    { s_nonce = Lit.nonce lit; s_tags = Lit.tags lit; s_name = name }
    :: t.services

let remove_service t lit =
  let nonce = Lit.nonce lit in
  t.services <- List.filter (fun s -> not (Int64.equal s.s_nonce nonce)) t.services

let install_stitch t lit ~partition ~next =
  t.stitches <-
    {
      st_nonce = Lit.nonce lit;
      st_tags = Lit.tags lit;
      st_partition = partition;
      st_next = next;
    }
    :: t.stitches

let remove_stitch t ~nonce =
  t.stitches <- List.filter (fun s -> not (Int64.equal s.st_nonce nonce)) t.stitches

let stitch_entries t =
  List.map (fun s -> (s.st_tags, s.st_partition, s.st_next)) t.stitches

let install_block t link lit =
  let p = find_port t link in
  p.blocks <- Array.map Option.some (Lit.tags lit) :: p.blocks

let install_block_pattern t link ~table pattern =
  if table < 0 || table >= t.d then
    invalid_arg "Node_engine.install_block_pattern: table out of range";
  let p = find_port t link in
  let entry = Array.make t.d None in
  entry.(table) <- Some pattern;
  p.blocks <- entry :: p.blocks

let clear_blocks t link = (find_port t link).blocks <- []

let loop_cache_add t key in_index =
  if not (Hashtbl.mem t.loop_cache key) then begin
    if Queue.length t.loop_queue >= t.loop_capacity then begin
      let victim = Queue.take t.loop_queue in
      Hashtbl.remove t.loop_cache victim
    end;
    Hashtbl.replace t.loop_cache key (in_index, t.tick_count);
    Queue.add key t.loop_queue
  end

let loop_cache_find t key =
  match Hashtbl.find_opt t.loop_cache key with
  | Some (in_index, inserted_at) when t.tick_count - inserted_at <= t.loop_ttl ->
    Some in_index
  | Some _ ->
    Hashtbl.remove t.loop_cache key;
    None
  | None -> None

let forward t ~table ~zfilter ~in_link =
  let obs = Obs.enabled () in
  if obs then Obs.Counter.incr m_decisions;
  let no_forward ?(tests = 0) drop =
    (if obs then
       match drop with
       | Some Bad_table -> Obs.Counter.incr m_drop_bad_table
       | Some Fill_limit_exceeded -> Obs.Counter.incr m_drop_fill
       | Some Loop_detected -> Obs.Counter.incr m_drop_loop
       | None -> ());
    {
      forward_on = [];
      deliver_local = false;
      services_matched = [];
      stitches_matched = [];
      loop_suspected = false;
      drop;
      false_positive_tests = tests;
    }
  in
  if table < 0 || table >= t.d then no_forward (Some Bad_table)
  else if not (Zfilter.within_fill_limit zfilter ~limit:t.fill_limit) then
    no_forward (Some Fill_limit_exceeded)
  else begin
    let in_index = Option.map (fun l -> l.Graph.index) in_link in
    (* Loop prevention (Sec. 3.3.3): if any incoming LIT other than the
       arrival interface matches, the packet may come back; remember the
       (zFilter, arrival) pair.  If it is already cached with a
       different arrival link, a loop is happening: drop. *)
    let loop_suspected = ref false in
    let loop_detected = ref false in
    if t.loop_prevention then begin
      let key = Bytes.to_string (Bitvec.to_bytes (Zfilter.to_bitvec zfilter)) in
      (match (loop_cache_find t key, in_index) with
      | Some cached, Some arriving ->
        if obs then Obs.Counter.incr m_loop_hits;
        if cached <> arriving then loop_detected := true
      | Some _, None -> if obs then Obs.Counter.incr m_loop_hits
      | None, _ -> ());
      if not !loop_detected then begin
        let risky = ref false in
        Array.iter
          (fun p ->
            if Some p.link.Graph.index <> in_index then
              let reverse_in = p.in_tags.(table) in
              if Zfilter.matches zfilter ~lit:reverse_in then risky := true)
          t.ports;
        if !risky then begin
          loop_suspected := true;
          if obs then Obs.Counter.incr m_loop_suspected;
          match in_index with
          | Some arriving -> loop_cache_add t key arriving
          | None -> ()
        end
      end
    end;
    if !loop_detected then no_forward (Some Loop_detected)
    else begin
      let tests = ref 0 in
      let chosen = Hashtbl.create 8 in
      let out = ref [] in
      let consider_link l =
        if not (Hashtbl.mem chosen l.Graph.index) then begin
          Hashtbl.replace chosen l.Graph.index ();
          out := l :: !out
        end
      in
      (* Physical entries: Algorithm 1, plus negative Link IDs. *)
      Array.iter
        (fun p ->
          incr tests;
          if p.up && Zfilter.matches zfilter ~lit:p.tags.(table) then begin
            let blocked =
              List.exists
                (fun neg ->
                  match neg.(table) with
                  | Some pattern -> Zfilter.matches zfilter ~lit:pattern
                  | None -> false)
                p.blocks
            in
            if blocked then begin
              if obs then Obs.Counter.incr m_block_vetoes
            end
            else consider_link p.link
          end)
        t.ports;
      (* Virtual entries. *)
      List.iter
        (fun v ->
          incr tests;
          if Zfilter.matches zfilter ~lit:v.v_tags.(table) then
            List.iter
              (fun l ->
                let p = find_port t l in
                if p.up then consider_link l)
              v.v_out)
        t.virtuals;
      let deliver_local = Zfilter.matches zfilter ~lit:(Lit.tag t.local table) in
      (* Service endpoints (Sec. 3.4): virtual Link IDs whose egress is
         a named local service rather than a wire. *)
      let services_matched =
        List.filter_map
          (fun s ->
            if Zfilter.matches zfilter ~lit:s.s_tags.(table) then Some s.s_name
            else None)
          t.services
      in
      (* Stitch entries: the partitioned-tree handoff points. *)
      let stitches_matched =
        List.filter_map
          (fun s ->
            if Zfilter.matches zfilter ~lit:s.st_tags.(table) then
              Some (s.st_partition, s.st_next)
            else None)
          t.stitches
      in
      if obs then begin
        Obs.Histogram.observe_int h_admitted (List.length !out);
        if deliver_local then Obs.Counter.incr m_local;
        Obs.Counter.add m_services (List.length services_matched);
        Obs.Counter.add m_stitches (List.length stitches_matched)
      end;
      {
        forward_on = List.rev !out;
        deliver_local;
        services_matched;
        stitches_matched;
        loop_suspected = !loop_suspected;
        drop = None;
        false_positive_tests = !tests;
      }
    end
  end

type port_state = {
  port_link : Graph.link;
  port_up : bool;
  port_tags : Bitvec.t array;
  port_in_tags : Bitvec.t array;
  port_blocks : Bitvec.t option array list;
}

type state = {
  state_node : Graph.node;
  state_params : Lit.params;
  state_fill_limit : float;
  state_local : Lit.t;
  state_ports : port_state array;
  state_virtuals : (Bitvec.t array * Graph.link list) list;
  state_services : (Bitvec.t array * string) list;
  state_stitches : (Bitvec.t array * int * int) list;
  state_loop_prevention : bool;
  state_loop_capacity : int;
  state_loop_ttl : int;
  state_tick : int;
}

let state t =
  {
    state_node = t.node;
    state_params = t.params;
    state_fill_limit = t.fill_limit;
    state_local = t.local;
    state_ports =
      Array.map
        (fun p ->
          {
            port_link = p.link;
            port_up = p.up;
            port_tags = p.tags;
            port_in_tags = p.in_tags;
            port_blocks = p.blocks;
          })
        t.ports;
    state_virtuals = List.map (fun v -> (v.v_tags, v.v_out)) t.virtuals;
    state_services = List.map (fun s -> (s.s_tags, s.s_name)) t.services;
    state_stitches = stitch_entries t;
    state_loop_prevention = t.loop_prevention;
    state_loop_capacity = t.loop_capacity;
    state_loop_ttl = t.loop_ttl;
    state_tick = t.tick_count;
  }

let forwarding_table_bits t ~sparse =
  let m = t.params.Lit.m in
  let entries = Array.length t.ports + List.length t.virtuals in
  if sparse then begin
    let log2m =
      let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
      bits (m - 1) 1
    in
    (* Each table-i entry stores its k_i set-bit positions of log2(m)
       bits each, plus the 8-bit out port (Sec. 4.2). *)
    let per_table i = entries * ((t.params.Lit.k_for_table.(i) * log2m) + 8) in
    let total = ref 0 in
    for i = 0 to t.d - 1 do
      total := !total + per_table i
    done;
    !total
  end
  else t.d * entries * (m + 8)
