(** The coordinator/worker wire protocol: length-prefixed, versioned binary
    frames with a payload CRC, over Unix-domain stream sockets.

    Frame layout (all integers big-endian):
    {v
      u32  payload length
      u8   protocol version
      u8   message tag
      ...  payload
      u32  CRC-32 of the payload
    v}

    The payload encoding is a flat binary writer (fixed-width ints, floats
    as IEEE-754 bits, length-prefixed strings, 0/1-prefixed options) — no
    external serialization dependency, and every value round-trips exactly,
    so a leased {!Run_spec.t} reconstructs bit-identically on the worker
    and the deterministic-fingerprint guarantee survives the wire. *)

open Amulet_contracts
open Amulet_defenses
module Config = Amulet_uarch.Config
module Generator = Amulet_corpus.Generator

let version = 4

(* Refuse absurd lengths before allocating: garbage on the socket must not
   look like a 4 GB frame. *)
let max_payload = 64 * 1024 * 1024

exception Protocol_error of string
exception Closed

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, the zlib polynomial)                            *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor (Int32.shift_right_logical !c 1) 0xEDB88320l
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i = Int32.to_int (Int32.logxor !c (Int32.of_int (Char.code ch))) land 0xff in
      c := Int32.logxor t.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Payload writer / reader                                             *)
(* ------------------------------------------------------------------ *)

let p_u8 b v = Buffer.add_uint8 b (v land 0xff)
let p_bool b v = p_u8 b (if v then 1 else 0)
let p_i64 b v = Buffer.add_int64_be b v
let p_int b v = p_i64 b (Int64.of_int v)
let p_float b v = p_i64 b (Int64.bits_of_float v)

let p_str b s =
  p_int b (String.length s);
  Buffer.add_string b s

let p_opt pf b = function
  | None -> p_bool b false
  | Some v ->
      p_bool b true;
      pf b v

let p_list pf b l =
  p_int b (List.length l);
  List.iter (pf b) l

type rd = { s : string; mutable pos : int }

let need rd n =
  if rd.pos + n > String.length rd.s then raise (Protocol_error "truncated payload")

let g_u8 rd =
  need rd 1;
  let v = Char.code rd.s.[rd.pos] in
  rd.pos <- rd.pos + 1;
  v

let g_bool rd = g_u8 rd <> 0

let g_i64 rd =
  need rd 8;
  let v = String.get_int64_be rd.s rd.pos in
  rd.pos <- rd.pos + 8;
  v

let g_int rd = Int64.to_int (g_i64 rd)
let g_float rd = Int64.float_of_bits (g_i64 rd)

let g_str rd =
  let n = g_int rd in
  if n < 0 || n > max_payload then raise (Protocol_error "bad string length");
  need rd n;
  let v = String.sub rd.s rd.pos n in
  rd.pos <- rd.pos + n;
  v

let g_opt gf rd = if g_bool rd then Some (gf rd) else None

let g_list gf rd =
  let n = g_int rd in
  if n < 0 || n > max_payload then raise (Protocol_error "bad list length");
  List.init n (fun _ -> gf rd)

(* ------------------------------------------------------------------ *)
(* Domain codecs                                                       *)
(* ------------------------------------------------------------------ *)

let p_mode b = function Executor.Naive -> p_u8 b 0 | Executor.Opt -> p_u8 b 1

let g_mode rd =
  match g_u8 rd with
  | 0 -> Executor.Naive
  | 1 -> Executor.Opt
  | n -> raise (Protocol_error (Printf.sprintf "bad executor mode %d" n))

let p_kind b = function Engine.Naive -> p_u8 b 0 | Engine.Pooled -> p_u8 b 1

let g_kind rd =
  match g_u8 rd with
  | 0 -> Engine.Naive
  | 1 -> Engine.Pooled
  | n -> raise (Protocol_error (Printf.sprintf "bad engine kind %d" n))

let p_format b (f : Utrace.format) =
  p_u8 b
    (match f with
    | Utrace.L1d_tlb -> 0
    | Utrace.Bp_state -> 1
    | Utrace.Mem_order -> 2
    | Utrace.Bp_order -> 3
    | Utrace.Pc_order -> 4)

let g_format rd =
  match g_u8 rd with
  | 0 -> Utrace.L1d_tlb
  | 1 -> Utrace.Bp_state
  | 2 -> Utrace.Mem_order
  | 3 -> Utrace.Bp_order
  | 4 -> Utrace.Pc_order
  | n -> raise (Protocol_error (Printf.sprintf "bad trace format %d" n))

let p_generator b (g : Generator.config) =
  p_int b g.Generator.blocks;
  p_int b g.min_insts_per_block;
  p_int b g.max_insts_per_block;
  p_float b g.mem_fraction;
  p_float b g.store_fraction;
  p_int b g.sandbox_pages;
  p_float b g.unaligned_fraction;
  p_float b g.fence_fraction

let g_generator rd =
  let blocks = g_int rd in
  let min_insts_per_block = g_int rd in
  let max_insts_per_block = g_int rd in
  let mem_fraction = g_float rd in
  let store_fraction = g_float rd in
  let sandbox_pages = g_int rd in
  let unaligned_fraction = g_float rd in
  let fence_fraction = g_float rd in
  {
    Generator.blocks;
    min_insts_per_block;
    max_insts_per_block;
    mem_fraction;
    store_fraction;
    sandbox_pages;
    unaligned_fraction;
    fence_fraction;
  }

(* v3: the full generation strategy travels on the wire, so guided
   campaigns run identically on worker fleets and in process. *)
let p_corpus_params b (p : Amulet_corpus.Corpus.params) =
  p_int b p.Amulet_corpus.Corpus.capacity;
  p_int b p.max_age;
  p_float b p.mutate_fraction;
  p_int b p.energy;
  p_list p_str b p.seed_programs

let g_corpus_params rd =
  let capacity = g_int rd in
  let max_age = g_int rd in
  let mutate_fraction = g_float rd in
  let energy = g_int rd in
  let seed_programs = g_list g_str rd in
  { Amulet_corpus.Corpus.capacity; max_age; mutate_fraction; energy;
    seed_programs }

let p_generation b (g : Run_spec.generation) =
  match g with
  | Run_spec.Random cfg ->
      p_u8 b 0;
      p_generator b cfg
  | Run_spec.Guided { base; corpus } ->
      p_u8 b 1;
      p_generator b base;
      p_corpus_params b corpus

let g_generation rd : Run_spec.generation =
  match g_u8 rd with
  | 0 -> Run_spec.Random (g_generator rd)
  | 1 ->
      let base = g_generator rd in
      let corpus = g_corpus_params rd in
      Run_spec.Guided { base; corpus }
  | n -> raise (Protocol_error (Printf.sprintf "bad generation strategy %d" n))

let p_injector b (i : Fault.injector) =
  p_float b i.Fault.p_crash;
  p_float b i.p_timeout;
  p_float b i.p_sim_fault;
  p_float b i.p_kill_worker;
  p_float b i.p_drop_message;
  p_float b i.p_delay_heartbeat;
  p_int b i.chaos_seed

let g_injector rd =
  let p_crash = g_float rd in
  let p_timeout = g_float rd in
  let p_sim_fault = g_float rd in
  let p_kill_worker = g_float rd in
  let p_drop_message = g_float rd in
  let p_delay_heartbeat = g_float rd in
  let chaos_seed = g_int rd in
  {
    Fault.p_crash;
    p_timeout;
    p_sim_fault;
    p_kill_worker;
    p_drop_message;
    p_delay_heartbeat;
    chaos_seed;
  }

let p_uarch_defense b (d : Config.defense) =
  match d with
  | Config.Baseline -> p_u8 b 0
  | Config.Invisispec c ->
      p_u8 b 1;
      p_bool b c.Config.iv_patched_eviction
  | Config.Cleanupspec c ->
      p_u8 b 2;
      p_bool b c.Config.cs_patched_store_cleanup;
      p_bool b c.Config.cs_patched_split_cleanup
  | Config.Stt c ->
      p_u8 b 3;
      p_bool b c.Config.stt_patched_store_tlb
  | Config.Speclfb c ->
      p_u8 b 4;
      p_bool b c.Config.lfb_patched_first_load
  | Config.Delay_on_miss -> p_u8 b 5
  | Config.Ghostminion -> p_u8 b 6

let g_uarch_defense rd : Config.defense =
  match g_u8 rd with
  | 0 -> Config.Baseline
  | 1 -> Config.Invisispec { Config.iv_patched_eviction = g_bool rd }
  | 2 ->
      let cs_patched_store_cleanup = g_bool rd in
      let cs_patched_split_cleanup = g_bool rd in
      Config.Cleanupspec { Config.cs_patched_store_cleanup; cs_patched_split_cleanup }
  | 3 -> Config.Stt { Config.stt_patched_store_tlb = g_bool rd }
  | 4 -> Config.Speclfb { Config.lfb_patched_first_load = g_bool rd }
  | 5 -> Config.Delay_on_miss
  | 6 -> Config.Ghostminion
  | n -> raise (Protocol_error (Printf.sprintf "bad uarch defense tag %d" n))

let p_sim_config b (c : Config.t) =
  List.iter (p_int b)
    [
      c.Config.fetch_width; c.issue_width; c.commit_width; c.rob_size;
      c.redirect_penalty; c.imul_latency; c.branch_latency; c.line_bytes;
      c.l1d_sets; c.l1d_ways; c.l1i_sets; c.l1i_ways; c.l2_sets; c.l2_ways;
      c.mshrs; c.l1_latency; c.l2_latency; c.mem_latency; c.queue_bandwidth;
      c.tlb_entries; c.bp_history_bits; c.bp_table_bits; c.btb_bits;
      c.mdp_bits; c.cleanup_latency; c.drain_cycles; c.max_cycles;
      c.deadlock_cycles;
    ];
  p_bool b c.Config.nl_prefetcher;
  p_bool b c.Config.legacy_hot_loop;
  p_uarch_defense b c.Config.defense

let g_sim_config rd : Config.t =
  let fetch_width = g_int rd in
  let issue_width = g_int rd in
  let commit_width = g_int rd in
  let rob_size = g_int rd in
  let redirect_penalty = g_int rd in
  let imul_latency = g_int rd in
  let branch_latency = g_int rd in
  let line_bytes = g_int rd in
  let l1d_sets = g_int rd in
  let l1d_ways = g_int rd in
  let l1i_sets = g_int rd in
  let l1i_ways = g_int rd in
  let l2_sets = g_int rd in
  let l2_ways = g_int rd in
  let mshrs = g_int rd in
  let l1_latency = g_int rd in
  let l2_latency = g_int rd in
  let mem_latency = g_int rd in
  let queue_bandwidth = g_int rd in
  let tlb_entries = g_int rd in
  let bp_history_bits = g_int rd in
  let bp_table_bits = g_int rd in
  let btb_bits = g_int rd in
  let mdp_bits = g_int rd in
  let cleanup_latency = g_int rd in
  let drain_cycles = g_int rd in
  let max_cycles = g_int rd in
  let deadlock_cycles = g_int rd in
  let nl_prefetcher = g_bool rd in
  let legacy_hot_loop = g_bool rd in
  let defense = g_uarch_defense rd in
  {
    Config.fetch_width; issue_width; commit_width; rob_size; redirect_penalty;
    imul_latency; branch_latency; line_bytes; l1d_sets; l1d_ways; l1i_sets;
    l1i_ways; l2_sets; l2_ways; mshrs; l1_latency; l2_latency; mem_latency;
    queue_bandwidth; nl_prefetcher; tlb_entries; bp_history_bits;
    bp_table_bits; btb_bits; mdp_bits; cleanup_latency; drain_cycles;
    max_cycles; deadlock_cycles; defense; legacy_hot_loop;
  }

let p_spec b (s : Run_spec.t) =
  p_str b s.Run_spec.defense.Defense.name;
  p_opt (fun b (c : Contract.t) -> p_str b c.Contract.name) b s.Run_spec.contract;
  p_int b s.Run_spec.rounds;
  p_int b s.Run_spec.seed;
  p_opt p_int b s.Run_spec.stop_after_violations;
  p_bool b s.Run_spec.classify;
  p_opt p_float b s.Run_spec.deadline_ms;
  p_opt p_float b s.Run_spec.budget_ms;
  p_int b s.Run_spec.n_base_inputs;
  p_int b s.Run_spec.boosts_per_input;
  p_generation b s.Run_spec.generation;
  p_mode b s.Run_spec.mode;
  p_kind b s.Run_spec.engine;
  p_format b s.Run_spec.trace_format;
  p_int b s.Run_spec.boot_insts;
  p_opt p_sim_config b s.Run_spec.sim_config;
  p_opt p_str b s.Run_spec.quarantine_dir;
  p_opt p_injector b s.Run_spec.chaos;
  p_bool b s.Run_spec.isolate_rounds;
  p_str b (Run_spec.static_filter_name s.Run_spec.static_filter)

let g_spec rd : Run_spec.t =
  let dname = g_str rd in
  let defense =
    match Defense.find dname with
    | Some d -> d
    | None -> raise (Protocol_error ("unknown defense preset " ^ dname))
  in
  let contract =
    g_opt
      (fun rd ->
        let cname = g_str rd in
        match Contract.find cname with
        | Some c -> c
        | None -> raise (Protocol_error ("unknown contract " ^ cname)))
      rd
  in
  let rounds = g_int rd in
  let seed = g_int rd in
  let stop_after_violations = g_opt g_int rd in
  let classify = g_bool rd in
  let deadline_ms = g_opt g_float rd in
  let budget_ms = g_opt g_float rd in
  let n_base_inputs = g_int rd in
  let boosts_per_input = g_int rd in
  let generation = g_generation rd in
  let mode = g_mode rd in
  let engine = g_kind rd in
  let trace_format = g_format rd in
  let boot_insts = g_int rd in
  let sim_config = g_opt g_sim_config rd in
  let quarantine_dir = g_opt g_str rd in
  let chaos = g_opt g_injector rd in
  let isolate_rounds = g_bool rd in
  let static_filter =
    let name = g_str rd in
    match Run_spec.static_filter_of_name name with
    | Some f -> f
    | None -> raise (Protocol_error ("unknown static filter " ^ name))
  in
  {
    Run_spec.defense; contract; rounds; seed; stop_after_violations; classify;
    deadline_ms; budget_ms; n_base_inputs; boosts_per_input; generation;
    mode; engine; trace_format; boot_insts; sim_config; quarantine_dir; chaos;
    isolate_rounds; static_filter;
  }

let p_fault_class b c = p_str b (Fault.class_name c)

let g_fault_class rd =
  let name = g_str rd in
  match Fault.class_of_name name with
  | Some c -> c
  | None -> raise (Protocol_error ("unknown fault class " ^ name))

let p_vsig b (v : Sweep.Ident.v) =
  p_i64 b v.Sweep.Ident.ctrace_hash;
  p_i64 b v.hash_a;
  p_i64 b v.hash_b;
  p_str b v.program_text;
  (* version 4: root-cause signature, for live cross-worker dedup *)
  p_str b v.signature

let g_vsig rd : Sweep.Ident.v =
  let ctrace_hash = g_i64 rd in
  let hash_a = g_i64 rd in
  let hash_b = g_i64 rd in
  let program_text = g_str rd in
  let signature = g_str rd in
  { Sweep.Ident.ctrace_hash; hash_a; hash_b; program_text; signature }

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type lease = {
  lease_id : int;
  job_id : int;
  shard : int;
  journal_path : string option;
  checkpoint_every : int;
  spec : Run_spec.t;
}

type shard_result = {
  lease_id : int;
  job_id : int;
  contract_name : string;
  rounds_done : int;
  discarded : int;
  test_cases : int;
  quarantined : int;
  duration_s : float;
  budget_exhausted : bool;
  fault_counts : (Fault.cls * int) list;
  detection_times : float list;
  violations : Sweep.Ident.v list;
}

type msg =
  | Hello of { worker : string; pid : int }
  | Hello_ok of { coordinator : string; heartbeat_s : float }
  | Lease of lease
  | Heartbeat of { lease_id : int; rounds_done : int }
  | Result of shard_result
  | Quarantine_shard of { lease_id : int; job_id : int; reason : string }
  | Shutdown of { reason : string }

let tag_of = function
  | Hello _ -> 1
  | Hello_ok _ -> 2
  | Lease _ -> 3
  | Heartbeat _ -> 4
  | Result _ -> 5
  | Quarantine_shard _ -> 6
  | Shutdown _ -> 7

let encode_payload msg =
  let b = Buffer.create 256 in
  (match msg with
  | Hello { worker; pid } ->
      p_str b worker;
      p_int b pid
  | Hello_ok { coordinator; heartbeat_s } ->
      p_str b coordinator;
      p_float b heartbeat_s
  | Lease { lease_id; job_id; shard; journal_path; checkpoint_every; spec } ->
      p_int b lease_id;
      p_int b job_id;
      p_int b shard;
      p_opt p_str b journal_path;
      p_int b checkpoint_every;
      p_spec b spec
  | Heartbeat { lease_id; rounds_done } ->
      p_int b lease_id;
      p_int b rounds_done
  | Result r ->
      p_int b r.lease_id;
      p_int b r.job_id;
      p_str b r.contract_name;
      p_int b r.rounds_done;
      p_int b r.discarded;
      p_int b r.test_cases;
      p_int b r.quarantined;
      p_float b r.duration_s;
      p_bool b r.budget_exhausted;
      p_list
        (fun b (c, n) ->
          p_fault_class b c;
          p_int b n)
        b r.fault_counts;
      p_list p_float b r.detection_times;
      p_list p_vsig b r.violations
  | Quarantine_shard { lease_id; job_id; reason } ->
      p_int b lease_id;
      p_int b job_id;
      p_str b reason
  | Shutdown { reason } -> p_str b reason);
  Buffer.contents b

let decode ~tag payload =
  let rd = { s = payload; pos = 0 } in
  let msg =
    match tag with
    | 1 ->
        let worker = g_str rd in
        let pid = g_int rd in
        Hello { worker; pid }
    | 2 ->
        let coordinator = g_str rd in
        let heartbeat_s = g_float rd in
        Hello_ok { coordinator; heartbeat_s }
    | 3 ->
        let lease_id = g_int rd in
        let job_id = g_int rd in
        let shard = g_int rd in
        let journal_path = g_opt g_str rd in
        let checkpoint_every = g_int rd in
        let spec = g_spec rd in
        Lease { lease_id; job_id; shard; journal_path; checkpoint_every; spec }
    | 4 ->
        let lease_id = g_int rd in
        let rounds_done = g_int rd in
        Heartbeat { lease_id; rounds_done }
    | 5 ->
        let lease_id = g_int rd in
        let job_id = g_int rd in
        let contract_name = g_str rd in
        let rounds_done = g_int rd in
        let discarded = g_int rd in
        let test_cases = g_int rd in
        let quarantined = g_int rd in
        let duration_s = g_float rd in
        let budget_exhausted = g_bool rd in
        let fault_counts =
          g_list
            (fun rd ->
              let c = g_fault_class rd in
              let n = g_int rd in
              (c, n))
            rd
        in
        let detection_times = g_list g_float rd in
        let violations = g_list g_vsig rd in
        Result
          {
            lease_id; job_id; contract_name; rounds_done; discarded;
            test_cases; quarantined; duration_s; budget_exhausted;
            fault_counts; detection_times; violations;
          }
    | 6 ->
        let lease_id = g_int rd in
        let job_id = g_int rd in
        let reason = g_str rd in
        Quarantine_shard { lease_id; job_id; reason }
    | 7 -> Shutdown { reason = g_str rd }
    | n -> raise (Protocol_error (Printf.sprintf "unknown message tag %d" n))
  in
  if rd.pos <> String.length payload then
    raise (Protocol_error "trailing bytes in payload");
  msg

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let header_bytes = 6
let trailer_bytes = 4

let frame ?(version = version) ~tag payload =
  let n = String.length payload in
  let b = Buffer.create (header_bytes + n + trailer_bytes) in
  Buffer.add_int32_be b (Int32.of_int n);
  p_u8 b version;
  p_u8 b tag;
  Buffer.add_string b payload;
  Buffer.add_int32_be b (crc32 payload);
  Buffer.contents b

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let write_frame ?version fd ~tag payload =
  let f = frame ?version ~tag payload in
  write_all fd f 0 (String.length f)

let write_msg fd msg = write_frame fd ~tag:(tag_of msg) (encode_payload msg)

(* Validate a complete raw frame (sans length word): version, CRC, tag. *)
let check_and_decode ~frame_version ~tag ~payload ~crc =
  if frame_version <> version then
    raise
      (Protocol_error
         (Printf.sprintf "protocol version mismatch: peer speaks v%d, we speak v%d"
            frame_version version));
  if crc32 payload <> crc then raise (Protocol_error "payload CRC mismatch");
  decode ~tag payload

let rec read_exact fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.read fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> -1
    in
    if n = 0 then raise Closed;
    if n < 0 then read_exact fd buf off len
    else read_exact fd buf (off + n) (len - n)
  end

let read_msg fd =
  let hdr = Bytes.create header_bytes in
  read_exact fd hdr 0 header_bytes;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_payload then
    raise (Protocol_error (Printf.sprintf "bad frame length %d" len));
  let frame_version = Bytes.get_uint8 hdr 4 in
  let tag = Bytes.get_uint8 hdr 5 in
  let rest = Bytes.create (len + trailer_bytes) in
  read_exact fd rest 0 (len + trailer_bytes);
  let payload = Bytes.sub_string rest 0 len in
  let crc = Bytes.get_int32_be rest len in
  check_and_decode ~frame_version ~tag ~payload ~crc

(* ------------------------------------------------------------------ *)
(* Incremental decoder (for the coordinator's select loop)             *)
(* ------------------------------------------------------------------ *)

module Decoder = struct
  type t = { mutable pending : string }

  let create () = { pending = "" }

  let feed t bytes len =
    t.pending <- t.pending ^ Bytes.sub_string bytes 0 len

  let next t =
    let s = t.pending in
    let have = String.length s in
    if have < header_bytes then `Awaiting
    else
      let len = Int32.to_int (String.get_int32_be s 0) in
      if len < 0 || len > max_payload then
        `Error (Printf.sprintf "bad frame length %d" len)
      else
        let total = header_bytes + len + trailer_bytes in
        if have < total then `Awaiting
        else begin
          let frame_version = Char.code s.[4] in
          let tag = Char.code s.[5] in
          let payload = String.sub s header_bytes len in
          let crc = String.get_int32_be s (header_bytes + len) in
          t.pending <- String.sub s total (have - total);
          match check_and_decode ~frame_version ~tag ~payload ~crc with
          | msg -> `Msg msg
          | exception Protocol_error e -> `Error e
        end
end
