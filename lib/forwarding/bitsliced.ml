module Idx = Lipsin_bitvec.Idx
module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Obs = Lipsin_obs.Obs

(* Telemetry twins of the scalar engines' metrics, labelled
   engine="bitsliced"; the differential suite checks the deltas agree
   decision for decision with both scalar engines. *)
let m_decisions =
  Obs.Counter.make ~help:"Bit-sliced forwarding decisions"
    "lipsin_bitsliced_decisions_total"

let m_drop_fill =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "bitsliced"); ("reason", "fill") ]
    "lipsin_drops_total"

let m_drop_loop =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "bitsliced"); ("reason", "loop") ]
    "lipsin_drops_total"

let m_drop_bad_table =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "bitsliced"); ("reason", "bad-table") ]
    "lipsin_drops_total"

let m_loop_hits =
  Obs.Counter.make ~help:"Loop-cache lookups that found a live entry"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_loop_cache_hits_total"

let m_loop_suspected =
  Obs.Counter.make ~help:"Decisions that cached a suspected loop"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_loop_suspected_total"

let m_block_vetoes =
  Obs.Counter.make ~help:"Matched ports suppressed by a negative Link ID"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_block_vetoes_total"

let m_local =
  Obs.Counter.make ~help:"Decisions that matched the node-local LIT"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_local_deliveries_total"

let m_services =
  Obs.Counter.make ~help:"Service endpoints matched"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_service_matches_total"

let m_stitches =
  Obs.Counter.make ~help:"Partition stitch entries matched"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_stitch_matches_total"

let h_admitted =
  Obs.Histogram.make ~help:"Out-links admitted per forwarding decision"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_admitted_links"

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

(* Engine crossover, re-measured after the certified-index conversion
   (BENCH_PR8): dropping the bounds checks sped the scalar fast path up
   more at low degree — its per-port row loop is all compares — moving
   the crossover from the (12, 16] bracket of the BENCH_PR5 sweep to
   (16, 32]: at 16 ports the scalar engine now wins (0.88x) and the
   bit-sliced engine leads from 32 ports up (1.18x at 32, ~2x at 64+).
   [`Auto] picks the bit-sliced engine from [auto_threshold] ports, set
   mid-bracket; the byte-plane (8-bit sweep) layout only pays for
   itself once the sweep dominates, from [byte_plane_threshold] ports —
   one full column block. *)
let auto_threshold = 24
let byte_plane_threshold = 64

(* ------------------------------------------------------------------ *)
(* Transposed table layout.

   The canonical blob of a slice stores the entries column-major: word
   [col[b][blk]] (at byte offset [((b * blocks) + blk) * 8]) holds bit
   position [b] of the entries for slots [64*blk .. 64*blk + 63].  A
   decision starts from an all-ones alive mask per block and, for every
   filter bit position that is zero, clears the slots whose entry sets
   that bit: [alive &= ~col[b]].  Surviving bits are exactly the slots
   with [zFilter AND LIT = LIT].

   The hot loop runs an equivalent formulation over a *derived* plane:
   group the columns [bits] at a time (one filter nibble or byte per
   group) and precompute, for every group [pos] and every possible
   group value [v],

     plane[pos][v] = OR of col[b] over the columns b of the group
                     whose bit is clear in v

   so a decision ORs one precomputed word per group into a dead mask
   and finishes with [alive = valid & ~dead] — the same result as the
   per-bit sweep, in ncols/bits steps instead of ncols.  The planes are
   native int arrays over 32-slot sub-blocks because ocamlopt without
   flambda boxes Int64 in hot loops; the canonical 64-bit-word column
   blob remains the audited layout contract and the transpose source.

   [bits] is 4 (nibble planes) for low-degree nodes and 8 (byte planes,
   16x the memory, half the sweep steps) from [byte_plane_threshold]
   ports up, where the sweep dominates the decision. *)

type slice = {
  sl_n : int;  (* entries (ports / virtuals / services) *)
  sl_blocks : int;  (* 64-slot column blocks = ceil(n/64) *)
  sl_sub : int;  (* 32-slot sub-blocks = ceil(n/32) *)
  sl_cols : Bytes.t;  (* canonical column-major blob, ncols * blocks words *)
  sl_used : Bytes.t;  (* stride bytes; bit b set iff column b is nonzero *)
  sl_active : int array;  (* ascending plane positions with a used column *)
  sl_plane : int array;  (* ((pos << bits) | v) * sub + s -> dead mask *)
  sl_valid : int array;  (* per sub-block: mask of slots < n *)
}

let build_slice ~stride ~bits ~n blob =
  let ncols = stride * 8 in
  let blocks = (n + 63) lsr 6 in
  let sub = (n + 31) lsr 5 in
  let cols = Bytes.make (ncols * blocks * 8) '\000' in
  let used = Bytes.make stride '\000' in
  for slot = 0 to n - 1 do
    let blk = slot lsr 6 and bit = slot land 63 in
    for i = 0 to stride - 1 do
      let byte = Char.code (Bytes.get blob ((slot * stride) + i)) in
      if byte <> 0 then
        for j = 0 to 7 do
          if byte land (1 lsl j) <> 0 then begin
            let b = (i lsl 3) lor j in
            let off = ((b * blocks) + blk) lsl 3 in
            Bytes.set_int64_le cols off
              (Int64.logor (Bytes.get_int64_le cols off)
                 (Int64.shift_left 1L bit));
            Bytes.set used i
              (Char.chr (Char.code (Bytes.get used i) lor (1 lsl j)))
          end
        done
    done
  done;
  let npos = ncols / bits in
  let vmask = (1 lsl bits) - 1 in
  let plane = Array.make (npos * (vmask + 1) * sub) 0 in
  for b = 0 to ncols - 1 do
    let pos = b / bits and tb = b mod bits in
    for blk = 0 to blocks - 1 do
      let w = Bytes.get_int64_le cols (((b * blocks) + blk) lsl 3) in
      if not (Int64.equal w 0L) then begin
        let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL) in
        let hi = Int64.to_int (Int64.shift_right_logical w 32) in
        let s0 = blk lsl 1 in
        for v = 0 to vmask do
          if v land (1 lsl tb) = 0 then begin
            let base = (((pos lsl bits) lor v) * sub) + s0 in
            plane.(base) <- plane.(base) lor lo;
            if s0 + 1 < sub then plane.(base + 1) <- plane.(base + 1) lor hi
          end
        done
      end
    done
  done;
  let active =
    let acc = ref [] in
    for pos = npos - 1 downto 0 do
      let any = ref false in
      for tb = 0 to bits - 1 do
        let b = (pos * bits) + tb in
        if Char.code (Bytes.get used (b lsr 3)) land (1 lsl (b land 7)) <> 0
        then any := true
      done;
      if !any then acc := pos :: !acc
    done;
    Array.of_list !acc
  in
  let valid =
    Array.init sub (fun s ->
        let remaining = n - (s lsl 5) in
        if remaining >= 32 then 0xFFFFFFFF else (1 lsl remaining) - 1)
  in
  {
    sl_n = n;
    sl_blocks = blocks;
    sl_sub = sub;
    sl_cols = cols;
    sl_used = used;
    sl_active = active;
    sl_plane = plane;
    sl_valid = valid;
  }

type t = {
  node : Graph.node;
  m : int;
  d : int;
  k_for_table : int array;
  words : int;  (* 64-bit words per row entry; >= m/64 + 1 (kill bit) *)
  stride : int;  (* bytes per row entry = 8 * words *)
  data_len : int;  (* live filter bytes = ceil(m/8) *)
  plane_bits : int;  (* 4 or 8: filter bits consumed per sweep step *)
  npos : int;  (* plane positions per filter = stride * 8 / plane_bits *)
  fill_limit : float;
  fill_threshold : int;  (* max popcount passing the fill limit *)
  n_ports : int;
  out_links : Graph.link array;
  out_index : int array;
  up : bool array;
  (* Row-major blobs: same layout (and same compile contract) as
     Fastpath's — the transpose source, the block/local test operands,
     and one side of Audit's column/row cross-check. *)
  phys : Bytes.t array;
  in_tags : Bytes.t array;
  blocks : Bytes.t array;
  block_off : int array array;
  n_virt : int;
  virt : Bytes.t array;
  v_out_off : int array;
  v_out_ports : int array;
  local : Bytes.t array;
  svc : Bytes.t array;
  svc_names : string array;
  stitch : Bytes.t array;
  stitch_partition : int array;
  stitch_next : int array;
  (* Transposed slices, per table. *)
  sl_phys : slice array;
  sl_in : slice array;
  sl_virt : slice array;
  sl_svc : slice array;
  sl_stitch : slice array;
  loop_prevention : bool;
  loop_cache : (string, int * int) Hashtbl.t;
  loop_queue : string Queue.t;
  loop_capacity : int;
  loop_ttl : int;
  mutable tick_count : int;
  zf : Bytes.t;  (* scratch: current zFilter widened to stride bytes *)
  vals : int array;  (* scratch: the filter cut into plane-index values *)
  dead_phys : int array;  (* scratch dead masks, physical slice *)
  dead_in : int array;  (* scratch dead masks, incoming-LIT slice *)
  dead_aux : int array;  (* scratch dead masks, virtual/service slices *)
  seen : int array;
  mutable gen : int;
  decision : decision;
  (* decide_batch scratch: one chunk of widened filters, plane values
     and precomputed dead masks, swept position-outer so each plane row
     stays hot across the packets of the chunk. *)
  batch_cap : int;
  batch_zf : Bytes.t;
  batch_vals : int array;
  batch_dead_phys : int array;
  batch_dead_in : int array;
  batch_ok : bool array;
  mutable core_hash : int;  (* digest of the non-stitch section, at compile *)
  mutable blob_digest : int;  (* digest of all blobs, at compile or patch *)
  obs : meters;
}

(* Integrity fingerprint Analysis.Audit compares against to catch
   post-compile corruption — covering the row blobs, the canonical
   column blobs and every derived array, hashed a word at a time with
   Fastpath's mixer.  Sectioned like Fastpath's: a core hash over
   geometry and every non-stitch blob and slice, recorded at compile,
   and a stitch section (rows, payloads, stitch slices) that
   [patch_stitches] rehashes alone. *)
let mix_slices h sls =
  Array.fold_left
    (fun h sl ->
      let h = Fastpath.mix_int h sl.sl_n in
      let h = Fastpath.mix_bytes h sl.sl_cols in
      let h = Fastpath.mix_bytes h sl.sl_used in
      let h = Fastpath.mix_ints h sl.sl_active in
      let h = Fastpath.mix_ints h sl.sl_plane in
      Fastpath.mix_ints h sl.sl_valid)
    h sls

let core_digest t =
  let h =
    Fastpath.mix_ints Fastpath.mix_offset
      [| t.m; t.d; t.words; t.stride; t.n_ports; t.n_virt; t.plane_bits;
         t.fill_threshold |]
  in
  let h = Fastpath.mix_ints h t.k_for_table in
  let h = Fastpath.mix_blobs h t.phys in
  let h = Fastpath.mix_blobs h t.in_tags in
  let h = Fastpath.mix_blobs h t.blocks in
  let h = Fastpath.mix_blobs h t.virt in
  let h = Fastpath.mix_blobs h t.local in
  let h = Fastpath.mix_blobs h t.svc in
  let h = mix_slices h t.sl_phys in
  let h = mix_slices h t.sl_in in
  let h = mix_slices h t.sl_virt in
  mix_slices h t.sl_svc

let stitch_digest t =
  let h = Fastpath.mix_blobs Fastpath.mix_offset t.stitch in
  let h = Fastpath.mix_ints h t.stitch_partition in
  let h = Fastpath.mix_ints h t.stitch_next in
  mix_slices h t.sl_stitch

let seal ~core ~stitch = Fastpath.mix_int core stitch land max_int
let digest t = seal ~core:(core_digest t) ~stitch:(stitch_digest t)

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

(* Sub-blocks of the virtual/service/stitch dead-mask scratch. *)
let sub_aux ~n_virt ~n_services ~n_stitch =
  max 1 ((max n_virt (max n_services n_stitch) + 31) lsr 5)

let compile engine =
  let st = Node_engine.state engine in
  let params = st.Node_engine.state_params in
  let m = params.Lit.m in
  let d = params.Lit.d in
  (* Same row geometry as Fastpath: bit m of the word padding is the
     kill bit, so a down link's entry can never be covered by the
     (zero-padded) packet filter — and, transposed, column m is exactly
     the set of down ports. *)
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
    Fastpath.stitch_rows ~d ~stride st.Node_engine.state_stitches
  in
  let n_stitch = Array.length stitch_next in
  let plane_bits = if n_ports >= byte_plane_threshold then 8 else 4 in
  let npos = stride * 8 / plane_bits in
  let slice_of blobs n = Array.map (build_slice ~stride ~bits:plane_bits ~n) blobs in
  let sl_phys = slice_of phys n_ports in
  let sl_in = slice_of in_tags n_ports in
  let sl_virt = slice_of virt n_virt in
  let sl_svc = slice_of svc n_services in
  let sl_stitch = slice_of stitch n_stitch in
  let sub_ports = (n_ports + 31) lsr 5 in
  let batch_cap = 32 in
  let t =
    {
      node = st.Node_engine.state_node;
      m;
      d;
      k_for_table = Array.copy params.Lit.k_for_table;
      words;
      stride;
      data_len;
      plane_bits;
      npos;
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
      sl_phys;
      sl_in;
      sl_virt;
      sl_svc;
      sl_stitch;
      loop_prevention = st.Node_engine.state_loop_prevention;
      loop_cache = Hashtbl.create 64;
      loop_queue = Queue.create ();
      loop_capacity = st.Node_engine.state_loop_capacity;
      loop_ttl = st.Node_engine.state_loop_ttl;
      tick_count = st.Node_engine.state_tick;
      zf = Bytes.make stride '\000';
      vals = Array.make npos 0;
      dead_phys = Array.make (max 1 sub_ports) 0;
      dead_in = Array.make (max 1 sub_ports) 0;
      dead_aux = Array.make (sub_aux ~n_virt ~n_services ~n_stitch) 0;
      seen = Array.make (max 1 n_ports) 0;
      gen = 0;
      decision = make_decision ~n_ports ~n_services ~n_stitch;
      batch_cap;
      batch_zf = Bytes.make (batch_cap * stride) '\000';
      batch_vals = Array.make (batch_cap * npos) 0;
      batch_dead_phys = Array.make (max 1 (batch_cap * sub_ports)) 0;
      batch_dead_in = Array.make (max 1 (batch_cap * sub_ports)) 0;
      batch_ok = Array.make batch_cap false;
      core_hash = 0;
      blob_digest = 0;
      obs = make_meters ();
    }
  in
  t.core_hash <- core_digest t;
  t.blob_digest <- seal ~core:t.core_hash ~stitch:(stitch_digest t);
  t

(* As Fastpath.patch_stitches: only the stitch rows, payloads, stitch
   slices, decision buffer and the aux dead-mask scratch (sized by the
   stitch count too) are rebuilt; [t] is retired. *)
let patch_stitches t engine =
  if Node_engine.node engine <> t.node then
    invalid_arg "Bitsliced.patch_stitches: engine of another node";
  let stitch, stitch_partition, stitch_next =
    Fastpath.stitch_rows ~d:t.d ~stride:t.stride
      (Node_engine.stitch_entries engine)
  in
  let n_stitch = Array.length stitch_next in
  let n_services = Array.length t.svc_names in
  let t' =
    {
      t with
      stitch;
      stitch_partition;
      stitch_next;
      sl_stitch =
        Array.map
          (build_slice ~stride:t.stride ~bits:t.plane_bits ~n:n_stitch)
          stitch;
      dead_aux =
        Array.make (sub_aux ~n_virt:t.n_virt ~n_services ~n_stitch) 0;
      decision = make_decision ~n_ports:t.n_ports ~n_services ~n_stitch;
    }
  in
  t'.blob_digest <- seal ~core:t.core_hash ~stitch:(stitch_digest t');
  t'

let node t = t.node
let table_count t = t.d
let port_count t = t.n_ports
let out_link t p = t.out_links.(p)

(* Scalar port views for zero-alloc consumers, mirroring Fastpath. *)
let[@lipsin.noalloc] out_index t p = Array.get t.out_index p

let[@lipsin.noalloc] out_dst t p =
  (Array.get t.out_links p).Graph.dst

let stitch_count t = Array.length t.stitch_next
let[@lipsin.noalloc] stitch_partition t s = Array.get t.stitch_partition s
let[@lipsin.noalloc] stitch_next t s = Array.get t.stitch_next s
let plane_bits t = t.plane_bits
let tick t = t.tick_count <- t.tick_count + 1

(* Same FIFO + tick-TTL loop cache as the scalar engines, entry for
   entry. *)

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

(* Row-wise Algorithm 1, for the (sparse) entry kinds the sweep does
   not cover: block vetoes and the node-local LIT.  Native-int 4-byte
   groups ([words] counts 8-byte row words): the int64 reads this
   replaced boxed one block per load on non-flambda ocamlopt. *)
let[@lipsin.noalloc] subset_entry blob ~off zf ~zoff ~words =
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < words do
    let lo = Idx.bget_u32 blob (off + (!w lsl 3)) in
    let hi = Idx.bget_u32 blob (off + (!w lsl 3) + 4) in
    if
      lo land Idx.bget_u32 zf (zoff + (!w lsl 3)) <> lo
      || hi land Idx.bget_u32 zf (zoff + (!w lsl 3) + 4) <> hi
    then ok := false;
    incr w
  done;
  !ok

(* De Bruijn count-trailing-zeros over a 32-bit mask: recovers the
   surviving slot indexes in ascending order, matching the scalar
   engines' port visit order. *)
let tz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = Idx.get tz_table ((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let fill_vals ~bits ~stride zf ~zoff vals ~voff =
  if bits = 8 then
    for i = 0 to stride - 1 do
      Idx.set vals (voff + i) (Char.code (Idx.bget zf (zoff + i)))
    done
  else
    (for i = 0 to stride - 1 do
       let b = Char.code (Idx.bget zf (zoff + i)) in
       Idx.set vals (voff + (i lsl 1)) (b land 0xF);
       Idx.set vals (voff + (i lsl 1) + 1) (b lsr 4)
     done
    [@lipsin.allow_unchecked
      "nibble planes: this branch runs only when plane_bits = 4, where \
       npos = 2 * stride exactly; npos = 8 * stride / plane_bits is a \
       division the affine layout facts cannot carry, so only npos >= \
       stride is available statically"])

(* The column sweep: OR one plane row per active position into the dead
   masks.  Specialised for the one- and two-sub-block shapes (<= 64
   entries) so the accumulators live in registers. *)
let[@lipsin.allow_unchecked
     "column sweep: build_slice sizes each plane row set as npos * \
      2^plane_bits * sl_sub, every position in sl_active is < npos, and \
      the packed (pos lsl bits) lor value row index plus the dead-mask \
      scratch (sized to the largest sl_sub at build time) are bit-level \
      invariants the affine domain cannot carry; Audit checks the plane \
      geometry and used maps"] sweep ~bits sl vals ~voff dead ~doff =
  let plane = sl.sl_plane in
  let act = sl.sl_active in
  let n_act = Array.length act in
  match sl.sl_sub with
  | 0 -> ()
  | 1 ->
    let acc = ref (Idx.get dead doff) in
    for i = 0 to n_act - 1 do
      let pos = Idx.get act i in
      acc := !acc lor Idx.get plane ((pos lsl bits) lor Idx.get vals (voff + pos))
    done;
    Idx.set dead doff !acc
  | 2 ->
    let a0 = ref (Idx.get dead doff) and a1 = ref (Idx.get dead (doff + 1)) in
    for i = 0 to n_act - 1 do
      let pos = Idx.get act i in
      let base = ((pos lsl bits) lor Idx.get vals (voff + pos)) lsl 1 in
      a0 := !a0 lor Idx.get plane base;
      a1 := !a1 lor Idx.get plane (base + 1)
    done;
    Idx.set dead doff !a0;
    Idx.set dead (doff + 1) !a1
  | sub ->
    for i = 0 to n_act - 1 do
      let pos = Idx.get act i in
      let base = ((pos lsl bits) lor Idx.get vals (voff + pos)) * sub in
      for s = 0 to sub - 1 do
        Idx.set dead (doff + s) (Idx.get dead (doff + s) lor Idx.get plane (base + s))
      done
    done

(* Position-outer sweep over a chunk of packets: each plane row is
   reused across the whole chunk before moving on — the batch
   amortisation of the column sweep. *)
let[@lipsin.allow_unchecked
     "batch column sweep: the same plane-row and dead-scratch geometry \
      as [sweep], with per-packet offsets i * npos and i * sl_sub that \
      stay inside the batch_cap-sized compile scratch; Audit checks the \
      plane geometry and used maps"] sweep_batch ~bits sl batch_vals
    ~npos batch_dead ~len ok =
  let plane = sl.sl_plane in
  let act = sl.sl_active in
  let sub = sl.sl_sub in
  if sub > 0 then
    for ai = 0 to Array.length act - 1 do
      let pos = Idx.get act ai in
      let prow = (pos lsl bits) * sub in
      for i = 0 to len - 1 do
        if Idx.get ok i then begin
          let base = prow + (Idx.get batch_vals ((i * npos) + pos) * sub) in
          let doff = i * sub in
          for s = 0 to sub - 1 do
            Idx.set batch_dead (doff + s)
              (Idx.get batch_dead (doff + s) lor Idx.get plane (base + s))
          done
        end
      done
    done

(* Everything after the width/fill gates: loop prevention, recovery of
   the surviving ports from the precomputed dead masks, block vetoes,
   virtual and service slices, local delivery and the Obs tail.  The
   control flow and meter increments mirror Fastpath.decide statement
   for statement; only the membership mechanism differs. *)
let finish t ~obs ~table ~in_link_index ~zf ~zoff ~vals ~voff ~pdead ~pdoff
    ~idead ~idoff =
  let d = t.decision in
  let bits = t.plane_bits in
  if t.loop_prevention then
    (begin
       let key = Bytes.sub_string zf zoff t.data_len in
       (match loop_cache_find t key with
       | Some cached ->
         if obs then bump t.obs.mhits;
         if in_link_index >= 0 && cached <> in_link_index then
           d.drop <- drop_loop
       | None -> ());
       if d.drop = no_drop then begin
         let sl = Idx.get t.sl_in table in
         let risky = ref false in
         (for s = 0 to sl.sl_sub - 1 do
            let a =
              ref (Idx.get sl.sl_valid s land lnot (Idx.get idead (idoff + s)))
            in
            while !a <> 0 do
              let p = (s lsl 5) + ctz32 !a in
              a := !a land (!a - 1);
              if Idx.get t.out_index p <> in_link_index then risky := true
            done
          done
         [@lipsin.allow_unchecked
           "survivor recovery: the dead scratch is sized to the largest \
            sl_sub across tables (and batch_cap chunks) at build time, \
            and p = 32 s + ctz32 mask stays below n_ports because \
            sl_valid only populates bits for real entries (Audit checks \
            the valid masks); both are bit-mask facts outside the affine \
            domain"]);
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
    let sl = Idx.get t.sl_phys table in
    let btab = Idx.get t.blocks table in
    let boff = Idx.get t.block_off table in
    (for s = 0 to sl.sl_sub - 1 do
       let a =
         ref (Idx.get sl.sl_valid s land lnot (Idx.get pdead (pdoff + s)))
       in
       while !a <> 0 do
         let p = (s lsl 5) + ctz32 !a in
         a := !a land (!a - 1);
         let blocked = ref false in
         for b = Idx.get boff p to Idx.get boff (p + 1) - 1 do
           if subset_entry btab ~off:(b * t.stride) zf ~zoff ~words:t.words
           then blocked := true
         done;
         if obs && !blocked then bump t.obs.mveto;
         if (not !blocked) && Idx.get t.seen p <> gen then begin
           Idx.set t.seen p gen;
           Idx.set d.forward d.n_forward p;
           d.n_forward <- d.n_forward + 1
         end
       done
     done
    [@lipsin.allow_unchecked
      "survivor recovery: p = 32 s + ctz32 mask is < n_ports via the \
       audited valid masks and the dead scratch is sized to the largest \
       sl_sub at build time; boff rows are monotone offsets into the \
       per-table blocks blob of boff.(n_ports) stride-wide entries \
       (Audit invariant), seen has at least n_ports entries, and \
       forward holds at most n_ports entries because the seen \
       generation stamp admits each port once per decision"]);
    let slv = Idx.get t.sl_virt table in
    if slv.sl_n > 0 then begin
      Array.fill t.dead_aux 0 slv.sl_sub 0;
      sweep ~bits slv vals ~voff t.dead_aux ~doff:0;
      (for s = 0 to slv.sl_sub - 1 do
         let a = ref (Idx.get slv.sl_valid s land lnot (Idx.get t.dead_aux s)) in
         while !a <> 0 do
           let v = (s lsl 5) + ctz32 !a in
           a := !a land (!a - 1);
           for j = Idx.get t.v_out_off v to Idx.get t.v_out_off (v + 1) - 1 do
             let p = Idx.get t.v_out_ports j in
             if Idx.get t.up p && Idx.get t.seen p <> gen then begin
               Idx.set t.seen p gen;
               Idx.set d.forward d.n_forward p;
               d.n_forward <- d.n_forward + 1
             end
           done
         done
       done
      [@lipsin.allow_unchecked
        "virtual-link recovery: v = 32 s + ctz32 mask is < n_virt via \
         the audited valid masks, v_out_off carries n_virt + 1 monotone \
         offsets bounding j inside v_out_ports, and every port read \
         from v_out_ports is < n_ports (Audit checks the indirection); \
         all content-dependent"])
    end;
    d.deliver_local <-
      subset_entry (Idx.get t.local table) ~off:0 zf ~zoff ~words:t.words;
    let sls = Idx.get t.sl_svc table in
    if sls.sl_n > 0 then begin
      Array.fill t.dead_aux 0 sls.sl_sub 0;
      sweep ~bits sls vals ~voff t.dead_aux ~doff:0;
      (for s = 0 to sls.sl_sub - 1 do
         let a = ref (Idx.get sls.sl_valid s land lnot (Idx.get t.dead_aux s)) in
         while !a <> 0 do
           let sv = (s lsl 5) + ctz32 !a in
           a := !a land (!a - 1);
           Idx.set d.services d.n_services sv;
           d.n_services <- d.n_services + 1
         done
       done
      [@lipsin.allow_unchecked
        "service recovery: sv = 32 s + ctz32 mask is < sl_n <= length \
         svc_names via the audited valid masks, and services holds \
         sl_n entries because each valid bit is drained once per \
         decision; content-dependent"])
    end;
    let slx = Idx.get t.sl_stitch table in
    if slx.sl_n > 0 then begin
      Array.fill t.dead_aux 0 slx.sl_sub 0;
      sweep ~bits slx vals ~voff t.dead_aux ~doff:0;
      (for s = 0 to slx.sl_sub - 1 do
         let a = ref (Idx.get slx.sl_valid s land lnot (Idx.get t.dead_aux s)) in
         while !a <> 0 do
           let sx = (s lsl 5) + ctz32 !a in
           a := !a land (!a - 1);
           Idx.set d.stitches d.n_stitch sx;
           d.n_stitch <- d.n_stitch + 1
         done
       done
      [@lipsin.allow_unchecked
        "stitch recovery: sx = 32 s + ctz32 mask is < sl_n <= length \
         stitch_next via the audited valid masks, and stitches holds \
         sl_n entries because each valid bit is drained once per \
         decision; content-dependent"])
    end;
    if obs then begin
      Obs.Histogram.record_int t.obs.hadm d.n_forward;
      if d.deliver_local then bump t.obs.mlocal;
      Idx.set t.obs.msvc 0 (Idx.get t.obs.msvc 0 + d.n_services);
      Idx.set t.obs.mstitch 0 (Idx.get t.obs.mstitch 0 + d.n_stitch)
    end;
    d
  end

let reset_decision d =
  d.n_forward <- 0;
  d.deliver_local <- false;
  d.n_services <- 0;
  d.n_stitch <- 0;
  d.loop_suspected <- false;
  d.drop <- no_drop;
  d.tests <- 0

let[@lipsin.noalloc] [@lipsin.inbounds] decide t ~table ~zfilter ~in_link_index =
  let obs = Obs.enabled () in
  if obs then bump t.obs.md;
  let d = t.decision in
  reset_decision d;
  if table < 0 || table >= t.d then begin
    d.drop <- drop_bad_table;
    if obs then bump t.obs.mbad;
    d
  end
  else if Zfilter.m zfilter <> t.m then
    invalid_arg "Bitsliced.decide: zFilter width mismatch"
  else if Zfilter.popcount zfilter > t.fill_threshold then begin
    d.drop <- drop_fill;
    if obs then bump t.obs.mfill;
    d
  end
  else begin
    Bitvec.blit_into (Zfilter.to_bitvec zfilter) t.zf ~pos:0;
    fill_vals ~bits:t.plane_bits ~stride:t.stride t.zf ~zoff:0 t.vals ~voff:0;
    let slp = Idx.get t.sl_phys table in
    Array.fill t.dead_phys 0 slp.sl_sub 0;
    sweep ~bits:t.plane_bits slp t.vals ~voff:0 t.dead_phys ~doff:0;
    if t.loop_prevention then begin
      let sli = Idx.get t.sl_in table in
      Array.fill t.dead_in 0 sli.sl_sub 0;
      sweep ~bits:t.plane_bits sli t.vals ~voff:0 t.dead_in ~doff:0
    end;
    finish t ~obs ~table ~in_link_index ~zf:t.zf ~zoff:0 ~vals:t.vals ~voff:0
      ~pdead:t.dead_phys ~pdoff:0 ~idead:t.dead_in ~idoff:0
  end

let[@lipsin.noalloc] [@lipsin.inbounds] decide_batch t ~table inputs ~f =
  if table < 0 || table >= t.d then
    for i = 0 to Array.length inputs - 1 do
      let zfilter, in_link_index = Idx.get inputs i in
      (f i (decide t ~table ~zfilter ~in_link_index)
      [@lipsin.allow_alloc "sink callback supplied by the caller"])
    done
  else begin
    let slp = Idx.get t.sl_phys table in
    let sli = Idx.get t.sl_in table in
    let npos = t.npos in
    let n = Array.length inputs in
    let start = ref 0 in
    while !start < n do
      let len = min t.batch_cap (n - !start) in
      (* Phase 1: widen and slice the chunk's admissible filters.  A
         packet failing the width or fill gate is left to the scalar
         entry point in phase 2, which re-checks (and raises or drops)
         at its proper sequential position. *)
      for i = 0 to len - 1 do
        let zfilter, _ =
          (Idx.get inputs (!start + i)
          [@lipsin.allow_unchecked
            "chunk cursor: start advances by len = min batch_cap (n - \
             start) >= 1 and stays inside [0, n); the non-constant step \
             defeats the monotone-counter write classification"])
        in
        let ok =
          Zfilter.m zfilter = t.m && Zfilter.popcount zfilter <= t.fill_threshold
        in
        Idx.set t.batch_ok i ok;
        if ok then begin
          Bitvec.blit_into (Zfilter.to_bitvec zfilter) t.batch_zf
            ~pos:(i * t.stride);
          fill_vals ~bits:t.plane_bits ~stride:t.stride t.batch_zf
            ~zoff:(i * t.stride) t.batch_vals ~voff:(i * npos)
        end
      done;
      Array.fill t.batch_dead_phys 0 (len * slp.sl_sub) 0;
      sweep_batch ~bits:t.plane_bits slp t.batch_vals ~npos t.batch_dead_phys
        ~len t.batch_ok;
      if t.loop_prevention then begin
        Array.fill t.batch_dead_in 0 (len * sli.sl_sub) 0;
        sweep_batch ~bits:t.plane_bits sli t.batch_vals ~npos t.batch_dead_in
          ~len t.batch_ok
      end;
      (* Phase 2: sequential decisions off the precomputed masks, so
         loop-cache evolution matches packet-by-packet semantics. *)
      for i = 0 to len - 1 do
        let zfilter, in_link_index =
          (Idx.get inputs (!start + i)
          [@lipsin.allow_unchecked
            "chunk cursor: start advances by len = min batch_cap (n - \
             start) >= 1 and stays inside [0, n); the non-constant step \
             defeats the monotone-counter write classification"])
        in
        if not (Idx.get t.batch_ok i) then
          (f (!start + i) (decide t ~table ~zfilter ~in_link_index)
          [@lipsin.allow_alloc "sink callback supplied by the caller"])
        else begin
          let obs = Obs.enabled () in
          if obs then bump t.obs.md;
          reset_decision t.decision;
          (f (!start + i)
             (finish t ~obs ~table ~in_link_index ~zf:t.batch_zf
                ~zoff:(i * t.stride) ~vals:t.batch_vals ~voff:(i * npos)
                ~pdead:t.batch_dead_phys ~pdoff:(i * slp.sl_sub)
                ~idead:t.batch_dead_in ~idoff:(i * sli.sl_sub))
          [@lipsin.allow_alloc "sink callback supplied by the caller"])
        end
      done;
      start := !start + len
    done
  end

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

type slice_view = {
  sv_entry : string;
  sv_n : int;
  sv_blocks : int;
  sv_sub : int;
  sv_cols : Bytes.t;
  sv_used : Bytes.t;
  sv_active : int array;
  sv_plane : int array;
  sv_valid : int array;
}

type view = {
  view_m : int;
  view_d : int;
  view_k_for_table : int array;
  view_words : int;
  view_stride : int;
  view_data_len : int;
  view_plane_bits : int;
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
  view_slices : slice_view array array;
  view_digest : int;
}

let view t =
  let slice_view entry sl =
    {
      sv_entry = entry;
      sv_n = sl.sl_n;
      sv_blocks = sl.sl_blocks;
      sv_sub = sl.sl_sub;
      sv_cols = sl.sl_cols;
      sv_used = sl.sl_used;
      sv_active = sl.sl_active;
      sv_plane = sl.sl_plane;
      sv_valid = sl.sl_valid;
    }
  in
  {
    view_m = t.m;
    view_d = t.d;
    view_k_for_table = t.k_for_table;
    view_words = t.words;
    view_stride = t.stride;
    view_data_len = t.data_len;
    view_plane_bits = t.plane_bits;
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
    view_slices =
      Array.init t.d (fun tbl ->
          [|
            slice_view "phys" t.sl_phys.(tbl);
            slice_view "in" t.sl_in.(tbl);
            slice_view "virt" t.sl_virt.(tbl);
            slice_view "svc" t.sl_svc.(tbl);
            slice_view "stitch" t.sl_stitch.(tbl);
          |]);
    view_digest = t.blob_digest;
  }

let table_bytes t =
  let row = ref 0 in
  for tbl = 0 to t.d - 1 do
    row :=
      !row
      + t.stride
        * ((2 * t.n_ports)
          + t.block_off.(tbl).(t.n_ports)
          + t.n_virt + 1 + Array.length t.svc_names
          + Array.length t.stitch_next)
  done;
  let cols = ref 0 in
  let add sls =
    Array.iter
      (fun sl ->
        cols :=
          !cols + Bytes.length sl.sl_cols + Bytes.length sl.sl_used
          + (8 * Array.length sl.sl_plane))
      sls
  in
  add t.sl_phys;
  add t.sl_in;
  add t.sl_virt;
  add t.sl_svc;
  add t.sl_stitch;
  !row + !cols
