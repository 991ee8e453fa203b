(** The campaign coordinator: leases (defense preset × seed shard) jobs to
    workers over {!Proto}, monitors heartbeats, and survives worker death by
    reassigning expired leases.

    Failure model (the thing this module is for):
    - {e Worker socket death} (SIGKILL, OOM, crash): detected as EOF/EPIPE;
      the worker's outstanding lease is requeued at the front and handed to
      the next idle worker.  Counted under {!Fault.C_worker_lost}.
    - {e Missed heartbeats} (hung worker, dropped messages): a lease whose
      worker has been silent for [lease_timeout_s] is expired — the
      connection is dropped and the shard requeued, identically to death.
    - {e Protocol damage} (version mismatch, CRC failure, garbage): the
      offender is told why ([Shutdown]) and disconnected; counted under
      {!Fault.C_protocol}.  Never fatal to the campaign.
    - {e Poisoned shards}: a shard requeued more than [max_attempts] times,
      or one the worker explicitly reports as unrunnable
      ([Quarantine_shard]), is abandoned and surfaces in the report like an
      in-process crashed shard — the sweep still completes.

    Reassignment is idempotent: shards checkpoint into the shared journal
    dir, a re-adopted shard resumes from its last round boundary (identical
    totals to an uninterrupted run — the {!Campaign} resume guarantee), and
    a zombie worker's duplicate result for an already-completed job is
    ignored.  Merged findings reduce to {!Sweep.Ident} rows, so the
    fingerprint is byte-identical to the in-process {!Sweep} path whatever
    the worker count or crash history. *)

open Amulet_defenses
module Obs = Amulet_obs.Obs
module Json = Amulet_obs.Json

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  lsock : Unix.file_descr;
  socket_path : string;
  name : string;
  metrics : Obs.t;
  journal_dir : string option;
  checkpoint_every : int;
  heartbeat_s : float;
  lease_timeout_s : float;
  max_attempts : int;
  idle_timeout_s : float;
}

let socket_path t = t.socket_path

let create ~socket ?(name = "amulet-coordinator") ?(metrics = Obs.noop)
    ?journal_dir ?(checkpoint_every = 1) ?(heartbeat_s = 0.5)
    ?(lease_timeout_s = 10.) ?(max_attempts = 3) ?(idle_timeout_s = 30.) () =
  if Sys.file_exists socket then Sys.remove socket;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind lsock (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close lsock;
     raise e);
  Unix.listen lsock 16;
  {
    lsock;
    socket_path = socket;
    name;
    metrics;
    journal_dir;
    checkpoint_every;
    heartbeat_s;
    lease_timeout_s;
    max_attempts;
    idle_timeout_s;
  }

(* ------------------------------------------------------------------ *)
(* Report types                                                        *)
(* ------------------------------------------------------------------ *)

type status = Done of Proto.shard_result | Abandoned of string

type shard = {
  job : Sweep.job;
  status : status;
  worker : string;  (** the worker that resolved it ("" when abandoned) *)
  attempts : int;  (** leases granted: 1 + reassignments *)
  wall_s : float;  (** grant-to-result of the resolving lease *)
}

type report = {
  shards : shard list;  (** every shard, in job order *)
  rows : Sweep.Ident.row list;
  fingerprint : string;
  workers_joined : int;
  reassignments : int;
  worker_lost : int;
  protocol_errors : int;
  crashed : int;  (** abandoned shards (lost past retry cap, quarantined) *)
  wall_s : float;
  test_cases : int;
  violations : int;
  distinct_clusters : int;
      (** distinct root-cause clusters across the fleet: per-defense
          {!Sweep.Ident.dedup_key}s, summed over rows *)
  fault_counts : (Fault.cls * int) list;
  metrics : Obs.Snapshot.t;
}

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

type active_lease = { l_id : int; l_job_id : int; l_granted : float }

type conn = {
  fd : Unix.file_descr;
  decoder : Proto.Decoder.t;
  mutable worker : string;
  mutable greeted : bool;
  mutable last_seen : float;
  mutable lease : active_lease option;
}

(* Job-side record while the loop runs. *)
type slot = {
  s_job : Sweep.job;
  mutable s_status : status option;  (* None = pending or leased *)
  mutable s_worker : string;
  mutable s_attempts : int;
  mutable s_wall : float;
}

let ignore_sigpipe () =
  (* a worker dying mid-write must surface as EPIPE, not kill the process *)
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  with Invalid_argument _ | Sys_error _ -> ()

let journal_path_for t (job : Sweep.job) =
  Option.map
    (fun dir ->
      Filename.concat dir
        (Printf.sprintf "shard_%03d_%s.json" job.Sweep.id
           job.Sweep.spec.Run_spec.defense.Defense.name))
    t.journal_dir

let serve (t : t) (jobs : Sweep.job list) : report =
  ignore_sigpipe ();
  (* merge position is list order, as in the in-process scheduler *)
  let jobs = List.mapi (fun i j -> { j with Sweep.id = i }) jobs in
  let slots =
    Array.of_list
      (List.map
         (fun j ->
           { s_job = j; s_status = None; s_worker = ""; s_attempts = 0; s_wall = 0. })
         jobs)
  in
  let n = Array.length slots in
  let started = Obs.Clock.now_s () in
  let m_live = Obs.gauge t.metrics "service.workers_live" in
  let m_outstanding = Obs.gauge t.metrics "service.leases_outstanding" in
  let m_reassign = Obs.counter t.metrics "service.reassignments" in
  let m_lost = Obs.counter t.metrics "service.worker_lost" in
  let m_proto = Obs.counter t.metrics "service.protocol_errors" in
  let m_results = Obs.counter t.metrics "service.results" in
  let m_clusters = Obs.gauge t.metrics "service.distinct_clusters" in
  let m_hb = Obs.histogram t.metrics "service.heartbeat_latency" in
  (* live cross-worker dedup: every violation a Result carries lands here,
     keyed per defense by its root-cause signature (identity hashes when
     unclassified), so the gauge reports distinct clusters as they arrive *)
  let live_clusters : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let record_clusters ~defense (r : Proto.shard_result) =
    List.iter
      (fun v ->
        Hashtbl.replace live_clusters (defense, Sweep.Ident.dedup_key v) ())
      r.Proto.violations;
    Obs.set_gauge m_clusters (float_of_int (Hashtbl.length live_clusters))
  in
  let faults = Fault.Counters.create () in
  let pending = ref (List.init n Fun.id) in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let lease_ctr = ref 0 in
  let workers_joined = ref 0 in
  let reassignments = ref 0 in
  let worker_lost = ref 0 in
  let protocol_errors = ref 0 in
  let unresolved = ref n in
  let last_activity = ref started in
  let outstanding () =
    Hashtbl.fold (fun _ c k -> if c.lease <> None then k + 1 else k) conns 0
  in
  let update_gauges () =
    Obs.set_gauge m_live (float_of_int (Hashtbl.length conns));
    Obs.set_gauge m_outstanding (float_of_int (outstanding ()))
  in
  let resolve slot status ~worker ~wall =
    if slot.s_status = None then begin
      slot.s_status <- Some status;
      slot.s_worker <- worker;
      slot.s_wall <- wall;
      decr unresolved
    end
  in
  (* Requeue an interrupted shard at the FRONT so reassignment is prompt;
     past the attempt cap it is abandoned instead (poisoned-shard guard). *)
  let requeue ~reason jid =
    let slot = slots.(jid) in
    if slot.s_status = None then
      if slot.s_attempts >= t.max_attempts then
        resolve slot
          (Abandoned
             (Printf.sprintf "%s (after %d lease attempts)" reason
                slot.s_attempts))
          ~worker:"" ~wall:0.
      else begin
        incr reassignments;
        Obs.incr m_reassign;
        pending := jid :: !pending
      end
  in
  let drop_conn ~reason conn =
    if Hashtbl.mem conns conn.fd then begin
      (match conn.lease with
      | Some l ->
          incr worker_lost;
          Obs.incr m_lost;
          Fault.Counters.record faults
            (Fault.Worker_lost (Printf.sprintf "%s: %s" conn.worker reason));
          conn.lease <- None;
          requeue ~reason l.l_job_id
      | None -> ());
      Hashtbl.remove conns conn.fd;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ())
    end
  in
  let grant conn jid =
    let slot = slots.(jid) in
    slot.s_attempts <- slot.s_attempts + 1;
    incr lease_ctr;
    let now = Obs.Clock.now_s () in
    conn.lease <- Some { l_id = !lease_ctr; l_job_id = jid; l_granted = now };
    conn.last_seen <- now;
    Proto.write_msg conn.fd
      (Proto.Lease
         {
           Proto.lease_id = !lease_ctr;
           job_id = jid;
           shard = slot.s_job.Sweep.shard;
           journal_path = journal_path_for t slot.s_job;
           checkpoint_every = t.checkpoint_every;
           spec = slot.s_job.Sweep.spec;
         })
  in
  let pump_conn conn =
    if conn.greeted && conn.lease = None then
      match !pending with
      | [] -> ()
      | jid :: rest -> (
          pending := rest;
          try grant conn jid
          with Unix.Unix_error _ | Sys_error _ ->
            (* the write failed: the worker is gone; drop_conn requeues *)
            drop_conn ~reason:"lease write failed" conn)
  in
  let pump () =
    let cs = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
    List.iter pump_conn cs
  in
  let protocol_fault conn what =
    incr protocol_errors;
    Obs.incr m_proto;
    Fault.Counters.record faults
      (Fault.Protocol (Printf.sprintf "%s: %s" conn.worker what));
    (try Proto.write_msg conn.fd (Proto.Shutdown { reason = what })
     with Unix.Unix_error _ | Sys_error _ -> ());
    drop_conn ~reason:("protocol: " ^ what) conn
  in
  let handle_msg conn (msg : Proto.msg) =
    let now = Obs.Clock.now_s () in
    last_activity := now;
    match msg with
    | Proto.Hello { worker; pid } ->
        conn.worker <- Printf.sprintf "%s/%d" worker pid;
        conn.greeted <- true;
        conn.last_seen <- now;
        incr workers_joined;
        (try
           Proto.write_msg conn.fd
             (Proto.Hello_ok
                { coordinator = t.name; heartbeat_s = t.heartbeat_s });
           pump_conn conn
         with Unix.Unix_error _ | Sys_error _ ->
           drop_conn ~reason:"hello-ok write failed" conn)
    | Proto.Heartbeat { lease_id; rounds_done = _ } -> (
        match conn.lease with
        | Some l when l.l_id = lease_id ->
            Obs.observe m_hb (Obs.Clock.elapsed_s ~since:conn.last_seen);
            conn.last_seen <- now
        | _ -> (* heartbeat for an expired lease: stale, ignore *) ())
    | Proto.Result r -> (
        match conn.lease with
        | Some l when l.l_id = r.Proto.lease_id ->
            conn.lease <- None;
            conn.last_seen <- now;
            if r.Proto.job_id < 0 || r.Proto.job_id >= n then
              protocol_fault conn
                (Printf.sprintf "result for unknown job %d" r.Proto.job_id)
            else begin
              Obs.incr m_results;
              record_clusters
                ~defense:
                  slots.(r.Proto.job_id).s_job.Sweep.spec.Run_spec.defense
                    .Defense.name
                r;
              (* duplicate results for an already-resolved job are ignored
                 inside [resolve] — reassignment stays idempotent *)
              resolve
                slots.(r.Proto.job_id)
                (Done r) ~worker:conn.worker
                ~wall:(Obs.Clock.elapsed_s ~since:l.l_granted);
              pump_conn conn
            end
        | _ -> (* result raced its lease expiry: already requeued *) ())
    | Proto.Quarantine_shard { lease_id; job_id; reason } -> (
        match conn.lease with
        | Some l when l.l_id = lease_id && l.l_job_id = job_id ->
            conn.lease <- None;
            conn.last_seen <- now;
            resolve slots.(job_id)
              (Abandoned ("quarantined by worker: " ^ reason))
              ~worker:conn.worker
              ~wall:(Obs.Clock.elapsed_s ~since:l.l_granted);
            pump_conn conn
        | _ -> ())
    | Proto.Shutdown { reason } -> drop_conn ~reason:("worker quit: " ^ reason) conn
    | Proto.Hello_ok _ | Proto.Lease _ ->
        protocol_fault conn "coordinator-only message from worker"
  in
  let drain conn =
    let rec go () =
      if Hashtbl.mem conns conn.fd then
        match Proto.Decoder.next conn.decoder with
        | `Awaiting -> ()
        | `Error e -> protocol_fault conn e
        | `Msg m ->
            handle_msg conn m;
            go ()
    in
    go ()
  in
  let buf = Bytes.create 65536 in
  let handle_readable fd =
    if fd = t.lsock then (
      match Unix.accept t.lsock with
      | cfd, _ ->
          last_activity := Obs.Clock.now_s ();
          Hashtbl.replace conns cfd
            {
              fd = cfd;
              decoder = Proto.Decoder.create ();
              worker = "?";
              greeted = false;
              last_seen = Obs.Clock.now_s ();
              lease = None;
            }
      | exception Unix.Unix_error _ -> ())
    else
      match Hashtbl.find_opt conns fd with
      | None -> ()
      | Some conn -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> drop_conn ~reason:"connection closed" conn
          | k ->
              Proto.Decoder.feed conn.decoder buf k;
              drain conn
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ ->
              drop_conn ~reason:"read error" conn)
  in
  let expire_stale () =
    let now = Obs.Clock.now_s () in
    let stale =
      Hashtbl.fold
        (fun _ c acc ->
          match c.lease with
          | Some _ when now -. c.last_seen > t.lease_timeout_s -> c :: acc
          | _ -> acc)
        conns []
    in
    List.iter
      (fun c ->
        drop_conn
          ~reason:
            (Printf.sprintf "heartbeat deadline missed (%.1fs silent)"
               (now -. c.last_seen))
          c)
      stale
  in
  let abort_if_deserted () =
    (* pending work, nobody to do it, and nobody has shown up for a while:
       fail the remainder instead of hanging forever *)
    if
      Hashtbl.length conns = 0
      && Obs.Clock.elapsed_s ~since:!last_activity > t.idle_timeout_s
    then
      Array.iter
        (fun slot ->
          if slot.s_status = None then
            resolve slot
              (Abandoned
                 (Printf.sprintf "no live workers for %.0fs" t.idle_timeout_s))
              ~worker:"" ~wall:0.)
        slots
  in
  let tick = Float.max 0.02 (Float.min 0.25 (t.heartbeat_s /. 2.)) in
  while !unresolved > 0 do
    expire_stale ();
    pump ();
    abort_if_deserted ();
    update_gauges ();
    if !unresolved > 0 then begin
      let fds = t.lsock :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      let readable, _, _ =
        try Unix.select fds [] [] tick
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter handle_readable readable
    end
  done;
  (* everything resolved: release the fleet and the socket *)
  Hashtbl.iter
    (fun _ c ->
      (try Proto.write_msg c.fd (Proto.Shutdown { reason = "sweep complete" })
       with Unix.Unix_error _ | Sys_error _ -> ());
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  Hashtbl.reset conns;
  update_gauges ();
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  (try Sys.remove t.socket_path with Sys_error _ -> ());
  (* ---------------- deterministic merge, in job order ---------------- *)
  let shards =
    Array.to_list
      (Array.map
         (fun slot ->
           {
             job = slot.s_job;
             status =
               (match slot.s_status with
               | Some s -> s
               | None -> Abandoned "unresolved (coordinator bug)");
             worker = slot.s_worker;
             attempts = slot.s_attempts;
             wall_s = slot.s_wall;
           })
         slots)
  in
  let rows =
    (* the in-process scheduler's grouping, so both paths merge alike *)
    List.map
      (fun group ->
        let spec = (List.hd group).job.Sweep.spec in
        let results =
          List.filter_map
            (fun s -> match s.status with Done r -> Some r | Abandoned _ -> None)
            group
        in
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
        {
          Sweep.Ident.defense = spec.Run_spec.defense.Defense.name;
          contract =
            (match results with
            | r :: _ -> r.Proto.contract_name
            | [] -> Run_spec.contract_name spec);
          rounds = sum (fun r -> r.Proto.rounds_done);
          discarded = sum (fun r -> r.Proto.discarded);
          test_cases = sum (fun r -> r.Proto.test_cases);
          violations = List.concat_map (fun r -> r.Proto.violations) results;
        })
      (Sweep.by_preset (fun s -> s.job) shards)
  in
  List.iter
    (fun s ->
      match s.status with
      | Done r -> Fault.Counters.add_list faults r.Proto.fault_counts
      | Abandoned _ -> ())
    shards;
  let crashed =
    List.length
      (List.filter
         (fun s -> match s.status with Abandoned _ -> true | _ -> false)
         shards)
  in
  {
    shards;
    rows;
    fingerprint = Sweep.Ident.fingerprint rows;
    workers_joined = !workers_joined;
    reassignments = !reassignments;
    worker_lost = !worker_lost;
    protocol_errors = !protocol_errors;
    crashed;
    wall_s = Obs.Clock.elapsed_s ~since:started;
    test_cases =
      List.fold_left (fun acc (r : Sweep.Ident.row) -> acc + r.test_cases) 0 rows;
    violations =
      List.fold_left
        (fun acc (r : Sweep.Ident.row) -> acc + List.length r.violations)
        0 rows;
    (* recomputed from the deterministic merge (not the live table) so the
       count is scheduling-independent, like the fingerprint *)
    distinct_clusters =
      List.fold_left
        (fun acc (r : Sweep.Ident.row) -> acc + Sweep.Ident.distinct r.violations)
        0 rows;
    fault_counts = Fault.Counters.to_list faults;
    metrics = Obs.Snapshot.of_registry t.metrics;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let to_json report =
  let row (r : Sweep.Ident.row) =
    Json.Obj
      [
        ("defense", Json.Str r.defense);
        ("contract", Json.Str r.contract);
        ("rounds", Json.Int r.rounds);
        ("discarded", Json.Int r.discarded);
        ("test_cases", Json.Int r.test_cases);
        ("violations", Json.Int (List.length r.violations));
        ("distinct_signatures", Json.Int (Sweep.Ident.distinct r.violations));
      ]
  in
  let shard s =
    Json.Obj
      ([
         ("job", Json.Int s.job.Sweep.id);
         ("defense", Json.Str s.job.Sweep.spec.Run_spec.defense.Defense.name);
         ("attempts", Json.Int s.attempts);
         ("worker", Json.Str s.worker);
       ]
      @
      match s.status with
      | Done r ->
          [
            ("status", Json.Str "done");
            ("rounds", Json.Int r.Proto.rounds_done);
            ("wall_s", Json.Float s.wall_s);
          ]
      | Abandoned why ->
          [ ("status", Json.Str "abandoned"); ("reason", Json.Str why) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "amulet.serve/1");
         ("jobs", Json.Int (List.length report.shards));
         ("crashed", Json.Int report.crashed);
         ("workers_joined", Json.Int report.workers_joined);
         ("reassignments", Json.Int report.reassignments);
         ("worker_lost", Json.Int report.worker_lost);
         ("protocol_errors", Json.Int report.protocol_errors);
         ("wall_s", Json.Float report.wall_s);
         ("test_cases", Json.Int report.test_cases);
         ("violations", Json.Int report.violations);
         ("distinct_clusters", Json.Int report.distinct_clusters);
         ("fingerprint", Json.Str report.fingerprint);
         ("rows", Json.List (List.map row report.rows));
         ("shards", Json.List (List.map shard report.shards));
         ( "faults",
           Json.Obj
             (List.map
                (fun (c, k) -> (Fault.class_name c, Json.Int k))
                report.fault_counts) );
         ("metrics", Obs.Snapshot.json report.metrics);
       ])

let pp fmt report =
  Format.fprintf fmt
    "serve: %d shards, %d worker(s) joined, %d lost, %d reassigned, %d \
     abandoned, %.1f s@."
    (List.length report.shards)
    report.workers_joined report.worker_lost report.reassignments
    report.crashed report.wall_s;
  Format.fprintf fmt "  %-22s %-9s %6s %6s %6s %8s@." "defense" "contract"
    "rounds" "tc" "viol" "clusters";
  List.iter
    (fun (r : Sweep.Ident.row) ->
      Format.fprintf fmt "  %-22s %-9s %6d %6d %6d %8d@." r.defense r.contract
        r.rounds r.test_cases
        (List.length r.violations)
        (Sweep.Ident.distinct r.violations))
    report.rows;
  Format.fprintf fmt "  distinct clusters: %d@." report.distinct_clusters;
  Format.fprintf fmt "  fingerprint: %s@." report.fingerprint
