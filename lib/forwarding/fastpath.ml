module Idx = Lipsin_bitvec.Idx
module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Obs = Lipsin_obs.Obs

(* Telemetry: registered once per process; each compiled engine caches
   its own domain's cells (see [meters]) so the hot loop's increments
   are plain int stores behind a single Obs.enabled load.  Metric names
   and semantics mirror Node_engine's reference-labelled twins — the
   differential suite checks the deltas agree decision for decision. *)
let m_decisions =
  Obs.Counter.make ~help:"Compiled fast-path forwarding decisions"
    "lipsin_fastpath_decisions_total"

let m_drop_fill =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "fast"); ("reason", "fill") ]
    "lipsin_drops_total"

let m_drop_loop =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "fast"); ("reason", "loop") ]
    "lipsin_drops_total"

let m_drop_bad_table =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "fast"); ("reason", "bad-table") ]
    "lipsin_drops_total"

let m_loop_hits =
  Obs.Counter.make ~help:"Loop-cache lookups that found a live entry"
    ~labels:[ ("engine", "fast") ]
    "lipsin_loop_cache_hits_total"

let m_loop_suspected =
  Obs.Counter.make ~help:"Decisions that cached a suspected loop"
    ~labels:[ ("engine", "fast") ]
    "lipsin_loop_suspected_total"

let m_block_vetoes =
  Obs.Counter.make ~help:"Matched ports suppressed by a negative Link ID"
    ~labels:[ ("engine", "fast") ]
    "lipsin_block_vetoes_total"

let m_local =
  Obs.Counter.make ~help:"Decisions that matched the node-local LIT"
    ~labels:[ ("engine", "fast") ]
    "lipsin_local_deliveries_total"

let m_services =
  Obs.Counter.make ~help:"Service endpoints matched"
    ~labels:[ ("engine", "fast") ]
    "lipsin_service_matches_total"

let m_stitches =
  Obs.Counter.make ~help:"Partition stitch entries matched"
    ~labels:[ ("engine", "fast") ]
    "lipsin_stitch_matches_total"

let h_admitted =
  Obs.Histogram.make ~help:"Out-links admitted per forwarding decision"
    ~labels:[ ("engine", "fast") ]
    "lipsin_admitted_links"

(* The calling domain's cells, fetched once per compile: compiled
   engines are domain-local (each Net lives on one domain), so the
   cells never cross a domain boundary. *)
type meters = {
  md : int array;
  mfill : int array;
  mloop : int array;
  mbad : int array;
  mhits : int array;
  msusp : int array;
  mveto : int array;
  mlocal : int array;
  msvc : int array;
  mstitch : int array;
  hadm : Obs.Histogram.cells;
}

let make_meters () =
  {
    md = Obs.Counter.local m_decisions;
    mfill = Obs.Counter.local m_drop_fill;
    mloop = Obs.Counter.local m_drop_loop;
    mbad = Obs.Counter.local m_drop_bad_table;
    mhits = Obs.Counter.local m_loop_hits;
    msusp = Obs.Counter.local m_loop_suspected;
    mveto = Obs.Counter.local m_block_vetoes;
    mlocal = Obs.Counter.local m_local;
    msvc = Obs.Counter.local m_services;
    mstitch = Obs.Counter.local m_stitches;
    hadm = Obs.Histogram.local h_admitted;
  }

let bump c = Idx.set c 0 (Idx.get c 0 + 1)

type decision = {
  mutable forward : int array;
  mutable n_forward : int;
  mutable deliver_local : bool;
  mutable services : int array;
  mutable n_services : int;
  mutable stitches : int array;
  mutable n_stitch : int;
  mutable loop_suspected : bool;
  mutable drop : int;
  mutable tests : int;
}

let no_drop = 0
let drop_fill = 1
let drop_loop = 2
let drop_bad_table = 3

type t = {
  node : Graph.node;
  m : int;
  d : int;
  k_for_table : int array;  (* bits per LIT, per table — audit bound *)
  words : int;  (* 64-bit words per entry; >= m/64 + 1 so a kill bit exists *)
  stride : int;  (* bytes per entry = 8 * words *)
  data_len : int;  (* live filter bytes = ceil(m/8) *)
  fill_limit : float;
  fill_threshold : int;  (* max popcount passing the fill limit *)
  n_ports : int;
  out_links : Graph.link array;
  out_index : int array;  (* port -> dense index of the outgoing link *)
  up : bool array;
  phys : Bytes.t array;  (* per table: n_ports LIT entries, kill bit if down *)
  in_tags : Bytes.t array;  (* per table: n_ports incoming LITs *)
  blocks : Bytes.t array;  (* per table: concatenated veto patterns *)
  block_off : int array array;  (* per table: n_ports+1 prefix offsets *)
  n_virt : int;
  virt : Bytes.t array;  (* per table: n_virt virtual-entry LITs *)
  v_out_off : int array;  (* n_virt+1 prefix offsets into v_out_ports *)
  v_out_ports : int array;
  local : Bytes.t array;  (* per table: the node-local (slow path) LIT *)
  svc : Bytes.t array;  (* per table: one entry per service *)
  svc_names : string array;
  stitch : Bytes.t array;  (* per table: one entry per stitch point *)
  stitch_partition : int array;  (* payloads parallel to stitch entries *)
  stitch_next : int array;
  loop_prevention : bool;
  loop_cache : (string, int * int) Hashtbl.t;
  loop_queue : string Queue.t;
  loop_capacity : int;
  loop_ttl : int;
  mutable tick_count : int;
  zf : Bytes.t;  (* scratch: the current zFilter widened to stride bytes *)
  zlo : int array;  (* scratch: zf's even 4-byte groups as native ints *)
  zhi : int array;  (* scratch: zf's odd 4-byte groups as native ints *)
  seen : int array;  (* per-decision dedup stamps *)
  mutable gen : int;
  decision : decision;
  mutable core_hash : int;  (* digest of the non-stitch section, at compile *)
  mutable blob_digest : int;  (* digest of all blobs, at compile or patch *)
  obs : meters;
}

(* Integrity fingerprint Analysis.Audit compares against to catch any
   post-compile byte corruption.  Hashed a word at a time
   (multiply-xorshift over 63-bit lanes, shared with Bitsliced): on a
   64-port node at m = 504, d = 8 (2 vCPUs, OCaml 5.1.1) a byte per
   step costs 178 us of a 274 us compile, a word per step 46 us.  The digest is compared only
   against its own recomputation, so the function choice is free;
   every step is a bijection of the running hash, so any single changed
   word changes the result.

   The digest has two sections: the core (geometry and every non-stitch
   blob) and the stitch section (stitch rows and payloads).
   [patch_stitches] rehashes only the latter and combines it with the
   core hash recorded at compile; [digest] recomputes both. *)
let mix_offset = 0xcbf29ce484222
let mix_prime = 0x2545F4914F6CDD1D

let mix_int h i =
  let x = (h lxor i) * mix_prime in
  x lxor (x lsr 32)

let mix_bytes h blob =
  let n = Bytes.length blob in
  let h = ref (mix_int h n) in
  let top = ref 0 in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = Bytes.get_int64_le blob !i in
    h := mix_int !h (Int64.to_int w);
    (* Int64.to_int drops bit 63: gather those bits, one per word at
       position (word index mod 32), and mix them in once at the end,
       so no flip is invisible. *)
    top :=
      !top
      lxor (Int64.to_int (Int64.shift_right_logical w 63) lsl ((!i lsr 3) land 31));
    i := !i + 8
  done;
  while !i < n do
    h := mix_int !h (Char.code (Bytes.get blob !i));
    incr i
  done;
  mix_int !h !top

let mix_ints h a =
  let h = ref h in
  Array.iter (fun i -> h := mix_int !h i) a;
  !h

let mix_blobs h blobs = Array.fold_left mix_bytes h blobs

let core_digest t =
  let h = mix_ints mix_offset [| t.m; t.d; t.words; t.stride; t.n_ports; t.n_virt |] in
  let h = mix_ints h t.k_for_table in
  let h = mix_blobs h t.phys in
  let h = mix_blobs h t.in_tags in
  let h = mix_blobs h t.blocks in
  let h = mix_blobs h t.virt in
  let h = mix_blobs h t.local in
  mix_blobs h t.svc

let stitch_digest t =
  mix_ints
    (mix_ints (mix_blobs mix_offset t.stitch) t.stitch_partition)
    t.stitch_next

let seal ~core ~stitch = mix_int core stitch land max_int
let digest t = seal ~core:(core_digest t) ~stitch:(stitch_digest t)

(* The stitch section, shared by [compile] and [patch_stitches]: per
   table one row per entry, plus the payloads parallel to the rows. *)
let stitch_rows ~d ~stride entries =
  let stitches = Array.of_list entries in
  let blobs =
    Array.init d (fun tbl ->
        let blob = Bytes.make (Array.length stitches * stride) '\000' in
        Array.iteri
          (fun s (tags, _, _) -> Bitvec.blit_into tags.(tbl) blob ~pos:(s * stride))
          stitches;
        blob)
  in
  ( blobs,
    Array.map (fun (_, pid, _) -> pid) stitches,
    Array.map (fun (_, _, next) -> next) stitches )

let make_decision ~n_ports ~n_services ~n_stitch =
  {
    forward = Array.make (max 1 n_ports) 0;
    n_forward = 0;
    deliver_local = false;
    services = Array.make (max 1 n_services) 0;
    n_services = 0;
    stitches = Array.make (max 1 n_stitch) 0;
    n_stitch = 0;
    loop_suspected = false;
    drop = no_drop;
    tests = 0;
  }

let compile engine =
  let st = Node_engine.state engine in
  let params = st.Node_engine.state_params in
  let m = params.Lit.m in
  let d = params.Lit.d in
  (* Always leave at least one spare bit per entry: bit m (the first
     padding bit) is the kill bit.  The scratch filter keeps its padding
     at zero, so an entry with the kill bit set can never be a subset of
     it — down links compile to never-matching entries and the hot loop
     needs no up/down branch. *)
  let words = (m / 64) + 1 in
  let stride = 8 * words in
  let data_len = (m + 7) / 8 in
  let ports = st.Node_engine.state_ports in
  let n_ports = Array.length ports in
  let entry_blob n = Bytes.make (n * stride) '\000' in
  let write blob slot vec = Bitvec.blit_into vec blob ~pos:(slot * stride) in
  let kill blob slot =
    let pos = (slot * stride) + (m lsr 3) in
    Bytes.set blob pos
      (Char.chr (Char.code (Bytes.get blob pos) lor (1 lsl (m land 7))))
  in
  let phys =
    Array.init d (fun tbl ->
        let blob = entry_blob n_ports in
        Array.iteri
          (fun p ps ->
            write blob p ps.Node_engine.port_tags.(tbl);
            if not ps.Node_engine.port_up then kill blob p)
          ports;
        blob)
  in
  let in_tags =
    Array.init d (fun tbl ->
        let blob = entry_blob n_ports in
        Array.iteri (fun p ps -> write blob p ps.Node_engine.port_in_tags.(tbl)) ports;
        blob)
  in
  let block_off =
    Array.init d (fun tbl ->
        let off = Array.make (n_ports + 1) 0 in
        for p = 0 to n_ports - 1 do
          let count =
            List.fold_left
              (fun acc entry -> if entry.(tbl) <> None then acc + 1 else acc)
              0 ports.(p).Node_engine.port_blocks
          in
          off.(p + 1) <- off.(p) + count
        done;
        off)
  in
  let blocks =
    Array.init d (fun tbl ->
        let off = block_off.(tbl) in
        let blob = entry_blob off.(n_ports) in
        Array.iteri
          (fun p ps ->
            let slot = ref off.(p) in
            List.iter
              (fun entry ->
                match entry.(tbl) with
                | Some pattern ->
                  write blob !slot pattern;
                  incr slot
                | None -> ())
              ps.Node_engine.port_blocks)
          ports;
        blob)
  in
  let port_of_link = Hashtbl.create (2 * n_ports) in
  Array.iteri
    (fun p ps ->
      Hashtbl.replace port_of_link ps.Node_engine.port_link.Graph.index p)
    ports;
  let virtuals = Array.of_list st.Node_engine.state_virtuals in
  let n_virt = Array.length virtuals in
  let virt =
    Array.init d (fun tbl ->
        let blob = entry_blob n_virt in
        Array.iteri (fun v (tags, _) -> write blob v tags.(tbl)) virtuals;
        blob)
  in
  let v_out_off = Array.make (n_virt + 1) 0 in
  Array.iteri
    (fun v (_, out) -> v_out_off.(v + 1) <- v_out_off.(v) + List.length out)
    virtuals;
  let v_out_ports = Array.make v_out_off.(n_virt) 0 in
  Array.iteri
    (fun v (_, out) ->
      List.iteri
        (fun j l -> v_out_ports.(v_out_off.(v) + j) <- Hashtbl.find port_of_link l.Graph.index)
        out)
    virtuals;
  let local =
    Array.init d (fun tbl ->
        let blob = entry_blob 1 in
        write blob 0 (Lit.tag st.Node_engine.state_local tbl);
        blob)
  in
  let services = Array.of_list st.Node_engine.state_services in
  let n_services = Array.length services in
  let svc =
    Array.init d (fun tbl ->
        let blob = entry_blob n_services in
        Array.iteri (fun s (tags, _) -> write blob s tags.(tbl)) services;
        blob)
  in
  let stitch, stitch_partition, stitch_next =
    stitch_rows ~d ~stride st.Node_engine.state_stitches
  in
  let t =
  {
    node = st.Node_engine.state_node;
    m;
    d;
    k_for_table = Array.copy params.Lit.k_for_table;
    words;
    stride;
    data_len;
    fill_limit = st.Node_engine.state_fill_limit;
    fill_threshold =
      Zfilter.fill_threshold ~m ~limit:st.Node_engine.state_fill_limit;
    n_ports;
    out_links = Array.map (fun ps -> ps.Node_engine.port_link) ports;
    out_index =
      Array.map (fun ps -> ps.Node_engine.port_link.Graph.index) ports;
    up = Array.map (fun ps -> ps.Node_engine.port_up) ports;
    phys;
    in_tags;
    blocks;
    block_off;
    n_virt;
    virt;
    v_out_off;
    v_out_ports;
    local;
    svc;
    svc_names = Array.map snd services;
    stitch;
    stitch_partition;
    stitch_next;
    loop_prevention = st.Node_engine.state_loop_prevention;
    loop_cache = Hashtbl.create 64;
    loop_queue = Queue.create ();
    loop_capacity = st.Node_engine.state_loop_capacity;
    loop_ttl = st.Node_engine.state_loop_ttl;
    tick_count = st.Node_engine.state_tick;
    zf = Bytes.make stride '\000';
    zlo = Array.make words 0;
    zhi = Array.make words 0;
    seen = Array.make (max 1 n_ports) 0;
    gen = 0;
    decision =
      make_decision ~n_ports ~n_services
        ~n_stitch:(Array.length stitch_next);
    core_hash = 0;
    blob_digest = 0;
    obs = make_meters ();
  }
  in
  t.core_hash <- core_digest t;
  t.blob_digest <- seal ~core:t.core_hash ~stitch:(stitch_digest t);
  t

(* A stitch install or removal touches only the stitch section, so the
   patched engine shares every other blob, the loop cache and the
   decision scratch with [t] (which is retired) and rehashes only that
   section against the core hash recorded at compile. *)
let patch_stitches t engine =
  if Node_engine.node engine <> t.node then
    invalid_arg "Fastpath.patch_stitches: engine of another node";
  let stitch, stitch_partition, stitch_next =
    stitch_rows ~d:t.d ~stride:t.stride (Node_engine.stitch_entries engine)
  in
  let t' =
    {
      t with
      stitch;
      stitch_partition;
      stitch_next;
      decision =
        make_decision ~n_ports:t.n_ports
          ~n_services:(Array.length t.svc_names)
          ~n_stitch:(Array.length stitch_next);
    }
  in
  t'.blob_digest <- seal ~core:t.core_hash ~stitch:(stitch_digest t');
  t'

let node t = t.node
let table_count t = t.d
let port_count t = t.n_ports
let out_link t p = t.out_links.(p)

(* Reuse-friendly scalar views of a port for zero-alloc consumers
   (Arena's recycled delivery loop): the dense link index and the
   destination node without touching the link record through a list. *)
let[@lipsin.noalloc] out_index t p = Array.get t.out_index p

let[@lipsin.noalloc] out_dst t p =
  (Array.get t.out_links p).Graph.dst

let stitch_count t = Array.length t.stitch_next
let[@lipsin.noalloc] stitch_partition t s = Array.get t.stitch_partition s
let[@lipsin.noalloc] stitch_next t s = Array.get t.stitch_next s
let tick t = t.tick_count <- t.tick_count + 1

(* The same FIFO + tick-TTL cache as Node_engine's, entry for entry, so
   the two engines drop the same packets given the same history. *)

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

(* Algorithm 1 on one padded entry: every word of the LIT must be
   covered by the corresponding zFilter word.  Native-int 4-byte groups
   ([words] counts 8-byte row words, so [2 * words] groups): the int64
   reads this replaced boxed one block per load on non-flambda
   ocamlopt, the allocation the soak gate caught.  The zFilter side
   arrives pre-hoisted into the [zlo]/[zhi] scratch arrays ([decide]
   fills them once per call), so each group costs one bytes read and
   one array load instead of two bytes reads. *)
let[@lipsin.noalloc] subset_entry blob ~off zlo zhi ~words =
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < words do
    let lo = Idx.bget_u32 blob (off + (!w lsl 3)) in
    if lo land Idx.get zlo !w <> lo then ok := false
    else begin
      (* Only read the odd group once the even one is covered: most
         non-matching entries miss on group 0, so the second bytes read
         never happens on the reject path. *)
      let hi = Idx.bget_u32 blob (off + (!w lsl 3) + 4) in
      if hi land Idx.get zhi !w <> hi then ok := false
    end;
    incr w
  done;
  !ok

let[@lipsin.noalloc] [@lipsin.inbounds] decide t ~table ~zfilter ~in_link_index =
  let obs = Obs.enabled () in
  if obs then bump t.obs.md;
  let d = t.decision in
  d.n_forward <- 0;
  d.deliver_local <- false;
  d.n_services <- 0;
  d.n_stitch <- 0;
  d.loop_suspected <- false;
  d.drop <- no_drop;
  d.tests <- 0;
  if table < 0 || table >= t.d then begin
    d.drop <- drop_bad_table;
    if obs then bump t.obs.mbad;
    d
  end
  else if Zfilter.m zfilter <> t.m then
    invalid_arg "Fastpath.decide: zFilter width mismatch"
  else begin
    Bitvec.blit_into (Zfilter.to_bitvec zfilter) t.zf ~pos:0;
    let zf = t.zf in
    let words = t.words in
    let zlo = t.zlo in
    let zhi = t.zhi in
    (* One pass hoists the zFilter's 4-byte groups into native-int
       scratch for the subset kernels below and counts the set bits on
       the way: the padded tail of [zf] is all-zero, so the sum equals
       [Zfilter.popcount zfilter] and decides the fill gate with the
       same integer stand-in for [within_fill_limit] (the threshold was
       precomputed at compile with the same float comparison). *)
    let pop = ref 0 in
    for w = 0 to words - 1 do
      let lo = Idx.bget_u32 zf (w lsl 3) in
      let hi = Idx.bget_u32 zf ((w lsl 3) + 4) in
      Idx.set zlo w lo;
      Idx.set zhi w hi;
      pop := !pop + Bitvec.popcount56 lo + Bitvec.popcount56 hi
    done;
    if !pop > t.fill_threshold then begin
      d.drop <- drop_fill;
      if obs then bump t.obs.mfill;
      d
    end
    else begin
      let stride = t.stride in
      if t.loop_prevention then
        (begin
           let key = Bytes.sub_string zf 0 t.data_len in
           (match loop_cache_find t key with
           | Some cached ->
             if obs then bump t.obs.mhits;
             if in_link_index >= 0 && cached <> in_link_index then
               d.drop <- drop_loop
           | None -> ());
           if d.drop = no_drop then begin
             let risky = ref false in
             let itab = Idx.get t.in_tags table in
             for p = 0 to t.n_ports - 1 do
               if Idx.get t.out_index p <> in_link_index then
                 if subset_entry itab ~off:(p * stride) zlo zhi ~words then
                   risky := true
             done;
             if !risky then begin
               d.loop_suspected <- true;
               if obs then bump t.obs.msusp;
               if in_link_index >= 0 then loop_cache_add t key in_link_index
             end
           end
         end
        [@lipsin.allow_alloc
          "loop-prevention cache key (5-word Bytes.sub_string) and FIFO \
           bookkeeping; engines benchmarked for zero allocation run with \
           loop_prevention off"]);
      if d.drop <> no_drop then begin
        if obs then bump t.obs.mloop;
        d
      end
      else begin
        t.gen <- t.gen + 1;
        let gen = t.gen in
        d.tests <- t.n_ports + t.n_virt;
        let ptab = Idx.get t.phys table in
        let btab = Idx.get t.blocks table in
        let boff = Idx.get t.block_off table in
        for p = 0 to t.n_ports - 1 do
          if subset_entry ptab ~off:(p * stride) zlo zhi ~words then begin
            let blocked = ref false in
            for b = Idx.get boff p to Idx.get boff (p + 1) - 1 do
              if
                (subset_entry btab ~off:(b * stride) zlo zhi ~words
                [@lipsin.allow_unchecked
                  "audit invariant: block_off rows are monotone offsets into                  the block blob (Audit checks offsets and blob length =                  block_off.(n_ports) * stride), so b * stride stays inside                  btab; the offsets live in array content, outside the                  affine domain"])
              then blocked := true
            done;
            if obs && !blocked then bump t.obs.mveto;
            if (not !blocked) && Idx.get t.seen p <> gen then begin
              Idx.set t.seen p gen;
              (Idx.set d.forward d.n_forward p
              [@lipsin.allow_unchecked
                "capacity invariant: forward holds max 1 n_ports entries                (compile) and the seen generation stamp admits each port at                most once per decide, so n_forward < n_ports here"]);
              d.n_forward <- d.n_forward + 1
            end
          end
        done;
        let vtab = Idx.get t.virt table in
        for v = 0 to t.n_virt - 1 do
          if subset_entry vtab ~off:(v * stride) zlo zhi ~words then
            for j = Idx.get t.v_out_off v to Idx.get t.v_out_off (v + 1) - 1 do
              let p =
                (Idx.get t.v_out_ports j
                [@lipsin.allow_unchecked
                  "audit invariant: v_out_off is a monotone offset table with                  v_out_off.(n_virt) = length v_out_ports (compile), so j                  stays inside v_out_ports; offsets live in array content,                  outside the affine domain"])
              in
              if
                (Idx.get t.up p
                [@lipsin.allow_unchecked
                  "compile invariant: v_out_ports entries are valid port                  indices < n_ports by construction; the port value is array                  content, outside the affine domain"])
                && (Idx.get t.seen p
                   [@lipsin.allow_unchecked
                     "compile invariant: v_out_ports entries are valid port                     indices < n_ports by construction"])
                   <> gen
              then begin
                (Idx.set t.seen p gen
                [@lipsin.allow_unchecked
                  "compile invariant: v_out_ports entries are valid port                  indices < n_ports by construction"]);
                (Idx.set d.forward d.n_forward p
                [@lipsin.allow_unchecked
                  "capacity invariant: forward holds max 1 n_ports entries                  and the seen stamp admits each port at most once per                  decide"]);
                d.n_forward <- d.n_forward + 1
              end
            done
        done;
        d.deliver_local <- subset_entry (Idx.get t.local table) ~off:0 zlo zhi ~words;
        let stab = Idx.get t.svc table in
        for s = 0 to Array.length t.svc_names - 1 do
          if subset_entry stab ~off:(s * stride) zlo zhi ~words then begin
            (Idx.set d.services d.n_services s
            [@lipsin.allow_unchecked
              "capacity invariant: services holds max 1 (length svc_names)              entries (compile) and s ranges over svc_names, each matched              at most once"]);
            d.n_services <- d.n_services + 1
          end
        done;
        let xtab = Idx.get t.stitch table in
        for s = 0 to Array.length t.stitch_next - 1 do
          if subset_entry xtab ~off:(s * stride) zlo zhi ~words then begin
            (Idx.set d.stitches d.n_stitch s
            [@lipsin.allow_unchecked
              "capacity invariant: stitches holds max 1 (length stitch_next)              entries (compile) and s ranges over stitch_next, each matched              at most once"]);
            d.n_stitch <- d.n_stitch + 1
          end
        done;
        if obs then begin
          Obs.Histogram.record_int t.obs.hadm d.n_forward;
          if d.deliver_local then bump t.obs.mlocal;
          Idx.set t.obs.msvc 0 (Idx.get t.obs.msvc 0 + d.n_services);
          Idx.set t.obs.mstitch 0 (Idx.get t.obs.mstitch 0 + d.n_stitch)
        end;
        d
      end
    end
  end

let[@lipsin.noalloc] [@lipsin.inbounds] decide_batch t ~table inputs ~f =
  (* for-loop rather than [Array.iteri]: the iteration closure would be
     the only allocation in an otherwise alloc-free batch. *)
  for i = 0 to Array.length inputs - 1 do
    let zfilter, in_link_index = Idx.get inputs i in
    (f i (decide t ~table ~zfilter ~in_link_index)
    [@lipsin.allow_alloc "sink callback supplied by the caller"])
  done

let drop_reason d =
  if d.drop = no_drop then None
  else if d.drop = drop_fill then Some Node_engine.Fill_limit_exceeded
  else if d.drop = drop_loop then Some Node_engine.Loop_detected
  else Some Node_engine.Bad_table

let forward_links t d = List.init d.n_forward (fun i -> t.out_links.(d.forward.(i)))
let service_names t d = List.init d.n_services (fun i -> t.svc_names.(d.services.(i)))

let stitch_targets t d =
  List.init d.n_stitch (fun i ->
      let s = d.stitches.(i) in
      (t.stitch_partition.(s), t.stitch_next.(s)))

let verdict t d =
  {
    Node_engine.forward_on = forward_links t d;
    deliver_local = d.deliver_local;
    services_matched = service_names t d;
    stitches_matched = stitch_targets t d;
    loop_suspected = d.loop_suspected;
    drop = drop_reason d;
    false_positive_tests = d.tests;
  }

type view = {
  view_m : int;
  view_d : int;
  view_k_for_table : int array;
  view_words : int;
  view_stride : int;
  view_data_len : int;
  view_n_ports : int;
  view_up : bool array;
  view_out_index : int array;
  view_phys : Bytes.t array;
  view_in_tags : Bytes.t array;
  view_blocks : Bytes.t array;
  view_block_off : int array array;
  view_n_virt : int;
  view_virt : Bytes.t array;
  view_v_out_off : int array;
  view_v_out_ports : int array;
  view_local : Bytes.t array;
  view_svc : Bytes.t array;
  view_svc_names : string array;
  view_stitch : Bytes.t array;
  view_stitch_partition : int array;
  view_stitch_next : int array;
  view_forward_cap : int;
  view_services_cap : int;
  view_stitch_cap : int;
  view_seen_cap : int;
  view_digest : int;
}

let view t =
  {
    view_m = t.m;
    view_d = t.d;
    view_k_for_table = t.k_for_table;
    view_words = t.words;
    view_stride = t.stride;
    view_data_len = t.data_len;
    view_n_ports = t.n_ports;
    view_up = t.up;
    view_out_index = t.out_index;
    view_phys = t.phys;
    view_in_tags = t.in_tags;
    view_blocks = t.blocks;
    view_block_off = t.block_off;
    view_n_virt = t.n_virt;
    view_virt = t.virt;
    view_v_out_off = t.v_out_off;
    view_v_out_ports = t.v_out_ports;
    view_local = t.local;
    view_svc = t.svc;
    view_svc_names = t.svc_names;
    view_stitch = t.stitch;
    view_stitch_partition = t.stitch_partition;
    view_stitch_next = t.stitch_next;
    view_forward_cap = Array.length t.decision.forward;
    view_services_cap = Array.length t.decision.services;
    view_stitch_cap = Array.length t.decision.stitches;
    view_seen_cap = Array.length t.seen;
    view_digest = t.blob_digest;
  }

let table_bytes t =
  let total = ref 0 in
  for tbl = 0 to t.d - 1 do
    total :=
      !total
      + t.stride
        * ((2 * t.n_ports) (* phys + in_tags *)
          + t.block_off.(tbl).(t.n_ports)
          + t.n_virt + 1 (* local *) + Array.length t.svc_names
          + Array.length t.stitch_next)
  done;
  !total
