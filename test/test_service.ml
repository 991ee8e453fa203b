(* Distributed campaign service tests: wire-protocol roundtrips and damage
   rejection, torn-journal recovery, the coordinator/worker loop producing
   the byte-identical fingerprint of the in-process scheduler (N=1 and N=4
   workers, chaos-killed workers included), heartbeat-expiry reassignment,
   protocol-version refusal, and the worker's bounded connect backoff. *)

open Amulet
open Amulet_defenses
module Generator = Amulet_corpus.Generator

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* Protocol: roundtrips                                                *)
(* ------------------------------------------------------------------ *)

(* One framed message's raw bytes, via a pipe. *)
let frame_bytes msg =
  let r, w = Unix.pipe () in
  Proto.write_msg w msg;
  Unix.close w;
  let buf = Buffer.create 256 in
  let b = Bytes.create 4096 in
  let rec go () =
    let k = Unix.read r b 0 4096 in
    if k > 0 then begin
      Buffer.add_subbytes buf b 0 k;
      go ()
    end
  in
  go ();
  Unix.close r;
  Buffer.contents buf

let decode_bytes s =
  let d = Proto.Decoder.create () in
  Proto.Decoder.feed d (Bytes.of_string s) (String.length s);
  match Proto.Decoder.next d with
  | `Msg m -> m
  | `Awaiting -> Alcotest.fail "decoder still awaiting on a complete frame"
  | `Error e -> Alcotest.failf "decoder error: %s" e

let sample_spec () =
  Run_spec.make ~defense:Defense.invisispec
    ~contract:
      (Option.get (Amulet_contracts.Contract.find "CT-SEQ"))
    ~rounds:7 ~seed:1234 ~inputs:5 ~boosts:3 ~boot_insts:300
    ~chaos:(Fault.injector ~p_crash:0.25 ~p_kill_worker:0.5 ~seed:77 ())
    ~sim_config:(Defense.config ~l1d_ways:2 ~mshrs:4 Defense.invisispec)
    ()

let sample_msgs () =
  [
    Proto.Hello { worker = "w-1"; pid = 4242 };
    Proto.Hello_ok { coordinator = "coord"; heartbeat_s = 0.25 };
    Proto.Lease
      {
        Proto.lease_id = 3;
        job_id = 1;
        shard = 0;
        journal_path = Some "/tmp/shard_001.json";
        checkpoint_every = 2;
        spec = sample_spec ();
      };
    Proto.Lease
      {
        Proto.lease_id = 4;
        job_id = 2;
        shard = 1;
        journal_path = None;
        checkpoint_every = 1;
        spec = Run_spec.make ~defense:Defense.baseline ();
      };
    (* v3: the full generation strategy crosses the wire, including corpus
       params and multi-line planted seeds *)
    Proto.Lease
      {
        Proto.lease_id = 5;
        job_id = 3;
        shard = 0;
        journal_path = None;
        checkpoint_every = 4;
        spec =
          Run_spec.make ~defense:Defense.stt
            ~generation:
              (Run_spec.guided
                 ~base:{ Generator.default with unaligned_fraction = 0.5 }
                 ~corpus:
                   {
                     Amulet_corpus.Corpus.capacity = 16;
                     max_age = 12;
                     mutate_fraction = 0.9;
                     energy = 3;
                     seed_programs =
                       [ "ld r1, [r2]\nand r2, r2, 4095\nst [r2], r1" ];
                   }
                 ())
            ();
      };
    Proto.Heartbeat { lease_id = 3; rounds_done = 5 };
    Proto.Result
      {
        Proto.lease_id = 3;
        job_id = 1;
        contract_name = "CT-SEQ";
        rounds_done = 7;
        discarded = 1;
        test_cases = 105;
        quarantined = 1;
        duration_s = 1.5;
        budget_exhausted = false;
        fault_counts = [ (Fault.C_worker_lost, 2); (Fault.C_protocol, 1) ];
        detection_times = [ 0.25; 1.0 ];
        violations =
          [
            {
              Sweep.Ident.ctrace_hash = 0xdeadbeefL;
              hash_a = -1L;
              hash_b = 42L;
              (* separators and control bytes must survive the wire *)
              program_text = "ld r1, [r2]\n|weird\tbytes|";
              signature = "Spectre v1 (install-visible)";
            };
          ];
      };
    Proto.Quarantine_shard { lease_id = 4; job_id = 2; reason = "poisoned" };
    Proto.Shutdown { reason = "sweep complete" };
  ]

(* Encoding is deterministic, so decode-then-re-encode reproducing the
   exact bytes proves the roundtrip lossless without comparing records
   (specs embed registry values we'd rather not compare structurally). *)
let test_proto_roundtrip () =
  List.iter
    (fun msg ->
      let bytes1 = frame_bytes msg in
      let decoded = decode_bytes bytes1 in
      let bytes2 = frame_bytes decoded in
      checkb "re-encoded frame is byte-identical" true (bytes1 = bytes2))
    (sample_msgs ())

let test_proto_incremental () =
  (* one byte at a time through the decoder: frames reassemble *)
  let msgs = sample_msgs () in
  let stream = String.concat "" (List.map frame_bytes msgs) in
  let d = Proto.Decoder.create () in
  let got = ref 0 in
  String.iter
    (fun c ->
      Proto.Decoder.feed d (Bytes.make 1 c) 1;
      match Proto.Decoder.next d with
      | `Msg _ -> incr got
      | `Awaiting -> ()
      | `Error e -> Alcotest.failf "decoder error: %s" e)
    stream;
  checki "all frames reassembled" (List.length msgs) !got

let test_proto_crc_rejected () =
  let raw = Bytes.of_string (frame_bytes (Proto.Hello { worker = "w"; pid = 1 })) in
  (* flip one payload byte (header is 6 bytes) *)
  Bytes.set raw 7 (Char.chr (Char.code (Bytes.get raw 7) lxor 0xff));
  let d = Proto.Decoder.create () in
  Proto.Decoder.feed d raw (Bytes.length raw);
  (match Proto.Decoder.next d with
  | `Error _ -> ()
  | `Msg _ -> Alcotest.fail "corrupt frame decoded"
  | `Awaiting -> Alcotest.fail "corrupt frame not rejected");
  (* and over a real fd, read_msg raises Protocol_error *)
  let r, w = Unix.pipe () in
  let n = Bytes.length raw in
  checki "corrupt frame written" n (Unix.write w raw 0 n);
  Unix.close w;
  (match Proto.read_msg r with
  | _ -> Alcotest.fail "read_msg accepted a corrupt frame"
  | exception Proto.Protocol_error _ -> ());
  Unix.close r

let test_proto_version_rejected () =
  let r, w = Unix.pipe () in
  Proto.write_frame ~version:99 w ~tag:1 "whatever";
  Unix.close w;
  (match Proto.read_msg r with
  | _ -> Alcotest.fail "read_msg accepted a mismatched version"
  | exception Proto.Protocol_error e ->
      checkb "error names the versions" true
        (let contains needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i =
             i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
           in
           go 0
         in
         contains "99" e && contains (string_of_int Proto.version) e));
  Unix.close r

let test_fault_class_roundtrip () =
  List.iter
    (fun c ->
      match Fault.class_of_name (Fault.class_name c) with
      | Some c' -> checkb (Fault.class_name c ^ " roundtrips") true (c = c')
      | None -> Alcotest.failf "class %s lost" (Fault.class_name c))
    Fault.all_classes;
  checkb "worker-lost class present" true
    (List.mem Fault.C_worker_lost Fault.all_classes);
  checkb "protocol class present" true
    (List.mem Fault.C_protocol Fault.all_classes)

(* ------------------------------------------------------------------ *)
(* Journal durability: torn checkpoints quarantine, never crash         *)
(* ------------------------------------------------------------------ *)

let small_spec ?(rounds = 2) ?(seed = 5) () =
  Run_spec.make ~defense:Defense.baseline ~rounds ~seed ~classify:false
    ~inputs:3 ~boosts:2 ~boot_insts:200 ()

let test_torn_journal_recovery () =
  let dir = temp_dir "amulet-service-torn" in
  let path = Filename.concat dir "shard.json" in
  ignore (Campaign.run ~journal_path:path ~checkpoint_every:1 (small_spec ()));
  (* intact journal resumes *)
  (match Journal.recover path with
  | Journal.Resumed j -> checki "rounds journaled" 2 j.Journal.programs_run
  | _ -> Alcotest.fail "intact journal did not resume");
  (* tear it: keep only the first half of the bytes (a crash mid-write on a
     filesystem that reorders data and rename) *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  (match Journal.recover path with
  | Journal.Quarantined { corrupt_path; error } ->
      checkb "torn journal moved aside" true (Sys.file_exists corrupt_path);
      checkb "original path freed" false (Sys.file_exists path);
      checkb "error captured" true (error <> "")
  | Journal.Resumed _ -> Alcotest.fail "torn journal resumed"
  | Journal.Fresh -> Alcotest.fail "torn journal reported missing");
  (* a second recovery starts fresh *)
  (match Journal.recover path with
  | Journal.Fresh -> ()
  | _ -> Alcotest.fail "quarantined path should now be fresh");
  rm_rf dir

(* The fingerprint-critical resume property: a campaign interrupted after a
   checkpoint that already holds violations, then resumed by another
   process, must fingerprint byte-identically to the uninterrupted run.
   The validating context is not journaled, so this only holds if the
   detection-time identity hashes survive the round-trip (a raw SIGKILL can
   land mid-round, after violations were checkpointed — the reassigned
   shard then adopts exactly such a journal). *)
let test_resume_preserves_identity () =
  let dir = temp_dir "amulet-service-resume-id" in
  let path = Filename.concat dir "shard.json" in
  let spec rounds =
    Run_spec.make ~defense:Defense.baseline ~rounds ~seed:9 ~classify:false
      ~inputs:4 ~boosts:2 ~boot_insts:200 ()
  in
  let row (r : Campaign.result) =
    {
      Sweep.Ident.defense = r.Campaign.defense.Defense.name;
      contract = r.Campaign.contract_name;
      rounds = r.Campaign.programs_run;
      discarded = r.Campaign.discarded_programs;
      test_cases = r.Campaign.test_cases;
      violations = List.map Sweep.Ident.of_violation r.Campaign.violations;
    }
  in
  let full = Campaign.run (spec 3) in
  checkb "uninterrupted run finds violations" true
    (full.Campaign.violations <> []);
  (* run the first 2 rounds only — its final checkpoint is the journal a
     successor would adopt after a kill during round 3 *)
  ignore (Campaign.run ~journal_path:path ~checkpoint_every:1 (spec 2));
  let j =
    match Journal.recover path with
    | Journal.Resumed j -> j
    | _ -> Alcotest.fail "interrupted journal did not resume"
  in
  checkb "checkpoint being adopted already holds a violation" true
    (j.Journal.violations <> []);
  let resumed = Campaign.run ~resume:j (spec 3) in
  checki "resumed totals match" full.Campaign.test_cases
    resumed.Campaign.test_cases;
  checks "resumed fingerprint equals uninterrupted"
    (Sweep.Ident.fingerprint [ row full ])
    (Sweep.Ident.fingerprint [ row resumed ]);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Worker backoff                                                      *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let d0 = Worker.backoff_delay ~base_s:0.05 ~cap_s:2. ~attempt:0 ~u:0. in
  let d0' = Worker.backoff_delay ~base_s:0.05 ~cap_s:2. ~attempt:0 ~u:0.999 in
  checkb "attempt 0 lower jitter bound" true (abs_float (d0 -. 0.025) < 1e-9);
  checkb "attempt 0 upper jitter bound" true (d0' < 0.075);
  let d3 = Worker.backoff_delay ~base_s:0.05 ~cap_s:2. ~attempt:3 ~u:0.5 in
  checkb "exponential growth" true (d3 > d0);
  let dbig = Worker.backoff_delay ~base_s:0.05 ~cap_s:2. ~attempt:30 ~u:0.999 in
  checkb "cap bounds the delay" true (dbig < 3.0)

let test_backoff_gives_up () =
  let t0 = Unix.gettimeofday () in
  match
    Worker.run ~connect:"/nonexistent-dir/amulet.sock" ~retries:2
      ~backoff_s:0.005 ~seed:3 ()
  with
  | Worker.Gave_up { attempts } ->
      checki "bounded attempts" 3 attempts;
      checkb "gave up promptly" true (Unix.gettimeofday () -. t0 < 5.)
  | Worker.Finished -> Alcotest.fail "connected to a nonexistent socket?"
  | Worker.Coordinator_lost _ -> Alcotest.fail "wrong outcome for no socket"

(* ------------------------------------------------------------------ *)
(* Coordinator/worker integration                                      *)
(* ------------------------------------------------------------------ *)

let service_matrix ?(seed = 9) () =
  Sweep.jobs
    ~presets:[ Defense.baseline; Defense.speclfb ]
    ~shards_per_preset:2 ~rounds:2 ~seed
    ~make_spec:(fun d ->
      Run_spec.make ~defense:d ~classify:false ~inputs:3 ~boosts:2
        ~boot_insts:200 ())
    ()

let reference_fingerprint () = Sweep.fingerprint (Sweep.run (service_matrix ()))

(* Workers are real processes: a chaos kill is a process death, exactly
   what the coordinator must survive.  Children never return and never run
   the parent's at_exit. *)
let fork_worker ?chaos ~socket ~seed () =
  match Unix.fork () with
  | 0 ->
      let code =
        match
          Worker.run ~connect:socket
            ~name:(Printf.sprintf "w-%d" (Unix.getpid ()))
            ?chaos ~seed ()
        with
        | Worker.Finished -> 0
        | Worker.Coordinator_lost _ | Worker.Gave_up _ -> 2
        | exception _ -> 2
      in
      Unix._exit code
  | pid -> pid

let reap pids = List.iter (fun p -> ignore (Unix.waitpid [] p)) pids

let serve_with_workers ~tag ~nworkers ?chaos_first ?(lease_timeout_s = 10.) ()
    =
  let dir = temp_dir ("amulet-service-" ^ tag) in
  let socket = Filename.concat dir "c.sock" in
  let jdir = temp_dir ("amulet-service-" ^ tag ^ "-j") in
  let coord =
    Coordinator.create ~socket ~journal_dir:jdir ~checkpoint_every:1
      ~heartbeat_s:0.1 ~lease_timeout_s ()
  in
  let pids =
    List.init nworkers (fun i ->
        let chaos = if i = 0 then chaos_first else None in
        fork_worker ?chaos ~socket ~seed:(100 + i) ())
  in
  let report = Coordinator.serve coord (service_matrix ()) in
  reap pids;
  rm_rf jdir;
  rm_rf dir;
  report

let test_fingerprint_one_worker () =
  let report = serve_with_workers ~tag:"n1" ~nworkers:1 () in
  checki "no abandoned shards" 0 report.Coordinator.crashed;
  checks "fingerprint matches in-process sweep" (reference_fingerprint ())
    report.Coordinator.fingerprint

let test_fingerprint_four_workers () =
  let report = serve_with_workers ~tag:"n4" ~nworkers:4 () in
  checki "no abandoned shards" 0 report.Coordinator.crashed;
  checki "all workers joined" 4 report.Coordinator.workers_joined;
  checks "fingerprint matches in-process sweep" (reference_fingerprint ())
    report.Coordinator.fingerprint

let test_chaos_killed_worker_reassigned () =
  (* worker 0 dies (SIGKILL-equivalent) at its first round boundary; the
     clean worker adopts its journal and the matrix still completes with
     the reference fingerprint *)
  let chaos = Fault.injector ~p_kill_worker:1.0 ~seed:21 () in
  let report =
    serve_with_workers ~tag:"chaos" ~nworkers:2 ~chaos_first:chaos
      ~lease_timeout_s:5. ()
  in
  checki "matrix completed despite the kill" 0 report.Coordinator.crashed;
  checkb "the death was seen" true (report.Coordinator.worker_lost >= 1);
  checkb "its shard was reassigned" true (report.Coordinator.reassignments >= 1);
  checkb "worker-lost fault recorded" true
    (List.mem_assoc Fault.C_worker_lost report.Coordinator.fault_counts);
  checks "fingerprint survives the crash" (reference_fingerprint ())
    report.Coordinator.fingerprint

(* Unix.fork is illegal once any domain has been spawned (OCaml 5), so the
   misbehaving clients run in forked children and the coordinator serves in
   the test process, exactly as in the fingerprint tests. *)

let test_heartbeat_expiry_reassigned () =
  (* a rogue client takes a lease and goes silent: the coordinator must
     expire it on the heartbeat deadline and hand the shard to a real
     worker that connects later *)
  let dir = temp_dir "amulet-service-rogue" in
  let socket = Filename.concat dir "c.sock" in
  let jdir = temp_dir "amulet-service-rogue-j" in
  let coord =
    Coordinator.create ~socket ~journal_dir:jdir ~checkpoint_every:1
      ~heartbeat_s:0.1 ~lease_timeout_s:0.5 ()
  in
  let rogue =
    match Unix.fork () with
    | 0 ->
        (try
           let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           Unix.connect fd (Unix.ADDR_UNIX socket);
           Proto.write_msg fd (Proto.Hello { worker = "rogue"; pid = 0 });
           ignore (Proto.read_msg fd);
           (* Hello_ok *)
           ignore (Proto.read_msg fd);
           (* the lease — hold it silently, never heartbeat *)
           Unix.sleepf 10.
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  (* the real worker joins only after the rogue has had time to take the
     first lease and miss its deadline *)
  let worker =
    match Unix.fork () with
    | 0 ->
        Unix.sleepf 1.0;
        let code =
          match Worker.run ~connect:socket ~name:"real" ~seed:7 () with
          | Worker.Finished -> 0
          | _ -> 2
        in
        Unix._exit code
    | pid -> pid
  in
  let report = Coordinator.serve coord (service_matrix ()) in
  Unix.kill rogue Sys.sigkill;
  reap [ rogue; worker ];
  rm_rf jdir;
  rm_rf dir;
  checkb "silent lease expired" true (report.Coordinator.worker_lost >= 1);
  checkb "shard reassigned" true (report.Coordinator.reassignments >= 1);
  checki "matrix completed" 0 report.Coordinator.crashed;
  checks "fingerprint unaffected" (reference_fingerprint ())
    report.Coordinator.fingerprint

let test_version_mismatch_refused () =
  (* a client speaking protocol v99 is refused and counted; a real worker
     still completes the matrix *)
  let dir = temp_dir "amulet-service-ver" in
  let socket = Filename.concat dir "c.sock" in
  let coord = Coordinator.create ~socket ~heartbeat_s:0.1 () in
  let mismatched =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            Proto.write_frame ~version:99 fd ~tag:1 "not-a-real-payload";
            match Proto.read_msg fd with
            | Proto.Shutdown _ -> 0 (* told why, then dropped *)
            | _ -> 3
            | exception Proto.Closed -> 0 (* dropped outright: also refused *)
          with _ -> 4
        in
        Unix._exit code
    | pid -> pid
  in
  let worker = fork_worker ~socket ~seed:7 () in
  let report = Coordinator.serve coord (service_matrix ()) in
  let _, rogue_status = Unix.waitpid [] mismatched in
  reap [ worker ];
  rm_rf dir;
  (match rogue_status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "mismatched client saw the wrong end: %d" c
  | _ -> Alcotest.fail "mismatched client killed");
  checkb "protocol error counted" true (report.Coordinator.protocol_errors >= 1);
  checki "matrix completed anyway" 0 report.Coordinator.crashed

let test_serve_json_export () =
  let report = serve_with_workers ~tag:"json" ~nworkers:1 () in
  let json = Coordinator.to_json report in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "schema tagged" true (contains "\"amulet.serve/1\"");
  checkb "fingerprint embedded, CI-greppable" true
    (contains ("\"fingerprint\":\"" ^ report.Coordinator.fingerprint ^ "\""));
  checkb "shard detail present" true (contains "\"status\":\"done\"")

let () =
  Alcotest.run "service"
    [
      ( "proto",
        [
          Alcotest.test_case "roundtrip" `Quick test_proto_roundtrip;
          Alcotest.test_case "incremental decode" `Quick test_proto_incremental;
          Alcotest.test_case "crc rejected" `Quick test_proto_crc_rejected;
          Alcotest.test_case "version rejected" `Quick test_proto_version_rejected;
          Alcotest.test_case "fault classes" `Quick test_fault_class_roundtrip;
        ] );
      ( "journal",
        [
          Alcotest.test_case "torn checkpoint" `Slow test_torn_journal_recovery;
          Alcotest.test_case "resume preserves identity" `Slow
            test_resume_preserves_identity;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "gives up" `Quick test_backoff_gives_up;
        ] );
      ( "service",
        [
          Alcotest.test_case "fingerprint, 1 worker" `Slow
            test_fingerprint_one_worker;
          Alcotest.test_case "fingerprint, 4 workers" `Slow
            test_fingerprint_four_workers;
          Alcotest.test_case "chaos-killed worker" `Slow
            test_chaos_killed_worker_reassigned;
          Alcotest.test_case "heartbeat expiry" `Slow
            test_heartbeat_expiry_reassigned;
          Alcotest.test_case "version refusal" `Slow test_version_mismatch_refused;
          Alcotest.test_case "json export" `Slow test_serve_json_export;
        ] );
    ]
