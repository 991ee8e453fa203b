(** The worker side of the distributed campaign service ([amulet worker]):
    connect to a {!Coordinator}, run leased shards on a warmed pooled
    engine, stream heartbeats at round boundaries, degrade gracefully.

    Graceful degradation, concretely:
    - {e Transient connect failures} (coordinator not yet listening, socket
      not yet on disk) are retried with jittered exponential backoff; past
      [retries] attempts the worker gives up with a structured
      {!Gave_up} — the CLI maps it to the standard fault exit code 2.
    - {e Coordinator death mid-lease}: the campaign's journal was already
      checkpointed at the last round boundary, so the worker just stops
      ({!Coordinator_lost}); whoever adopts the shard next resumes it.
    - {e Torn journals} on lease adoption are quarantined by
      {!Journal.recover} (moved aside, shard restarted fresh) — a
      half-written checkpoint can never crash the fleet.
    - {e Shard-level crashes} (the campaign itself raising) are reported as
      [Quarantine_shard] so the coordinator abandons that shard instead of
      burning its retry budget on a poisoned input.

    Worker-level chaos (the [p_kill_worker] / [p_drop_message] /
    [p_delay_heartbeat] injector modes) also hangs off the round boundary:
    kills happen {e after} the checkpoint, so a chaos-killed shard resumes
    exactly where it died and the merged fingerprint is preserved — that is
    the invariant the service tests pin. *)

module Obs = Amulet_obs.Obs
module Rng = Amulet_corpus.Rng

type outcome =
  | Finished  (** coordinator sent [Shutdown]: clean end of the matrix *)
  | Coordinator_lost of string
      (** socket died mid-session; journals are checkpointed *)
  | Gave_up of { attempts : int }
      (** could not connect within the retry budget *)

let backoff_delay ~base_s ~cap_s ~attempt ~u =
  (* exponential with full decorrelation jitter in [0.5x, 1.5x): callers
     pass u uniform in [0,1) so the delay is pure and testable *)
  let exp = Float.min cap_s (base_s *. (2. ** float_of_int attempt)) in
  exp *. (0.5 +. u)

(* Raised out of the campaign's on_round hook when a heartbeat write hits a
   dead socket: the journal is checkpointed, so stopping is safe. *)
exception Coordinator_gone of string

let send fd msg =
  try Proto.write_msg fd msg
  with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
  | Sys_error _
  ->
    raise (Coordinator_gone "write failed")

let connect_with_backoff ~socket ~retries ~backoff_s ~rng =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception
        Unix.Unix_error
          ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN | Unix.EINTR), _, _)
      ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if attempt >= retries then Error (attempt + 1)
        else begin
          let u = float_of_int (Rng.int rng 1000) /. 1000. in
          Unix.sleepf (backoff_delay ~base_s:backoff_s ~cap_s:2. ~attempt ~u);
          go (attempt + 1)
        end
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go 0

let run_lease ~fd ~metrics ~chaos ~heartbeat_s ~cache (l : Proto.lease) =
  let resume =
    match l.Proto.journal_path with
    | None -> None
    | Some p -> (
        match Journal.recover p with
        | Journal.Resumed j -> Some j
        | Journal.Quarantined _ | Journal.Fresh -> None)
  in
  let hb_sent = ref (Obs.Clock.now_s ()) in
  let send_hb rounds =
    send fd (Proto.Heartbeat { lease_id = l.Proto.lease_id; rounds_done = rounds });
    hb_sent := Obs.Clock.now_s ()
  in
  (* an immediate heartbeat acknowledges the lease before the first (maybe
     slow) round completes *)
  send_hb 0;
  let maybe_hb rounds =
    if Obs.Clock.elapsed_s ~since:!hb_sent >= heartbeat_s then send_hb rounds
  in
  let on_round rounds =
    (* Campaign checkpointed before calling us, so a chaos kill here leaves
       an adoptable journal at this exact boundary *)
    match chaos with
    | None -> maybe_hb rounds
    | Some ch -> (
        match Fault.sample_worker ch with
        | `Kill_worker -> Unix._exit 137
        | `Drop_message -> (* swallow this boundary's heartbeat *) ()
        | `Delay_heartbeat ->
            Unix.sleepf 0.05;
            maybe_hb rounds
        | `None -> maybe_hb rounds)
  in
  let spec = l.Proto.spec in
  let engine = Sweep.Engine_cache.get cache ~metrics spec in
  match
    Campaign.run ?journal_path:l.Proto.journal_path
      ~checkpoint_every:l.Proto.checkpoint_every ?resume ~metrics ?engine
      ~on_round spec
  with
  | r ->
      send fd
        (Proto.Result
           {
             Proto.lease_id = l.Proto.lease_id;
             job_id = l.Proto.job_id;
             contract_name = r.Campaign.contract_name;
             rounds_done = r.Campaign.programs_run;
             discarded = r.Campaign.discarded_programs;
             test_cases = r.Campaign.test_cases;
             quarantined = r.Campaign.quarantined;
             duration_s = r.Campaign.duration;
             budget_exhausted = r.Campaign.budget_exhausted;
             fault_counts = r.Campaign.fault_counts;
             detection_times = r.Campaign.detection_times;
             violations = List.map Sweep.Ident.of_violation r.Campaign.violations;
           })
  | exception (Coordinator_gone _ as e) -> raise e
  | exception e ->
      (* the shard itself is poisoned: tell the coordinator to abandon it
         rather than retry into the same crash *)
      send fd
        (Proto.Quarantine_shard
           {
             lease_id = l.Proto.lease_id;
             job_id = l.Proto.job_id;
             reason = Printexc.to_string e;
           })

let run ~connect ?(name = "worker") ?(metrics = Obs.noop) ?chaos ?(retries = 6)
    ?(backoff_s = 0.05) ?(seed = 0) () : outcome =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  let chaos = Option.map Fault.arm chaos in
  let rng = Rng.create ~seed:(seed lxor Unix.getpid ()) in
  match connect_with_backoff ~socket:connect ~retries ~backoff_s ~rng with
  | Error attempts -> Gave_up { attempts }
  | Ok fd -> (
      let m_leases = Obs.counter metrics "worker.leases" in
      let finish outcome =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        outcome
      in
      try
        send fd (Proto.Hello { worker = name; pid = Unix.getpid () });
        match Proto.read_msg fd with
        | Proto.Shutdown _ -> finish Finished
        | Proto.Hello_ok { heartbeat_s; _ } ->
            let cache = Sweep.Engine_cache.create () in
            let rec session () =
              match Proto.read_msg fd with
              | Proto.Lease l ->
                  Obs.incr m_leases;
                  run_lease ~fd ~metrics ~chaos ~heartbeat_s ~cache l;
                  session ()
              | Proto.Shutdown _ -> finish Finished
              | Proto.Hello _ | Proto.Hello_ok _ | Proto.Heartbeat _
              | Proto.Result _ | Proto.Quarantine_shard _ ->
                  (* worker-only traffic echoed back: ignore *)
                  session ()
            in
            session ()
        | _ -> finish (Coordinator_lost "unexpected greeting")
      with
      | Proto.Closed -> finish (Coordinator_lost "connection closed")
      | Proto.Protocol_error e -> finish (Coordinator_lost ("protocol: " ^ e))
      | Coordinator_gone e -> finish (Coordinator_lost e)
      | Unix.Unix_error (e, _, _) ->
          finish (Coordinator_lost (Unix.error_message e)))
