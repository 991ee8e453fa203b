(** Sharded multi-defense sweep on a work-stealing domain scheduler.

    Determinism contract: a shard's entire behaviour is fixed by its
    [Run_spec.t] (seed included) at job-construction time; which domain
    runs it, and in what order, only affects wall-clock fields.  Engine
    reuse across jobs is safe because [Engine.start_program] re-pristines
    the simulator per program (the PR-2 pooled-engine property), and the
    campaign's stats accounting is delta-based. *)

open Amulet_defenses
module Obs = Amulet_obs.Obs
module Json = Amulet_obs.Json

type job = { id : int; shard : int; spec : Run_spec.t }

(* ------------------------------------------------------------------ *)
(* Job construction                                                    *)
(* ------------------------------------------------------------------ *)

(* Case-insensitive glob: '*' matches any substring, everything else is
   literal. *)
let glob_match pat name =
  let pat = String.lowercase_ascii pat and name = String.lowercase_ascii name in
  let np = String.length pat and nn = String.length name in
  let rec go p n =
    if p = np then n = nn
    else
      match pat.[p] with
      | '*' -> go (p + 1) n || (n < nn && go p (n + 1))
      | c -> n < nn && name.[n] = c && go (p + 1) (n + 1)
  in
  go 0 0

let select patterns =
  match patterns with
  | [] -> Ok Defense.all
  | _ -> (
      let unmatched =
        List.find_opt
          (fun p ->
            not
              (List.exists
                 (fun (d : Defense.t) -> glob_match p d.Defense.name)
                 Defense.all))
          patterns
      in
      match unmatched with
      | Some p -> Error (Printf.sprintf "no defense preset matches %S" p)
      | None ->
          Ok
            (List.filter
               (fun (d : Defense.t) ->
                 List.exists (fun p -> glob_match p d.Defense.name) patterns)
               Defense.all))

(* The shard seed depends only on (sweep seed, preset index, shard index):
   the same derivation style as Campaign.round_seed and {!instances}, and
   never on which domain picks the job up. *)
let shard_seed ~seed pi shard = seed + ((pi + 1) * 2654435761) + (shard * 7919)

let jobs ?(presets = Defense.all) ?(shards_per_preset = 1) ?(rounds = 20)
    ?(seed = 42) ?make_spec () =
  let make_spec =
    match make_spec with
    | Some f -> f
    | None -> fun d -> Run_spec.make ~defense:d ()
  in
  let id = ref (-1) in
  List.concat
    (List.mapi
       (fun pi d ->
         List.init shards_per_preset (fun s ->
             incr id;
             let spec =
               {
                 (make_spec d) with
                 Run_spec.rounds;
                 seed = shard_seed ~seed pi s;
               }
             in
             { id = !id; shard = s; spec }))
       presets)

(* [fuzz -j n]: instance i keeps the spec and runs at seed + i*7919, so
   instance 0 is the single-instance campaign. *)
let instances n (spec : Run_spec.t) =
  List.init n (fun i ->
      { id = i; shard = i; spec = Run_spec.with_seed spec (spec.Run_spec.seed + (i * 7919)) })

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = Completed of Campaign.result | Crashed of Fault.exn_info
type shard = { job : job; outcome : outcome; wall_s : float }

type row = {
  result : Campaign.result;
  shards : int;
  crashed_shards : int;
  wall_s : float;
  inputs_per_sec : float;
  time_to_first_leak : float option;
}

type report = {
  rows : row list;
  shards : shard list;
  domains : int;
  jobs : int;
  crashed : int;
  wall_s : float;
  test_cases : int;
  metrics : Obs.Snapshot.t;
}

(* One warmed engine per distinct defense config, private to one domain or
   one worker process.  Shared by the in-process scheduler below and by the
   distributed {!Worker}, so both paths pay simulator boots identically. *)
module Engine_cache = struct
  (* The key is pure data (Config.t is ints/bools/variants), so structural
     hashing is sound. *)
  type key = {
    k_defense : string;
    k_mode : Executor.mode;
    k_kind : Engine.kind;
    k_format : Utrace.format;
    k_boot : int;
    k_sim : Amulet_uarch.Config.t option;
  }

  type t = (key, Engine.t * Stats.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let get (cache : t) ~metrics (spec : Run_spec.t) =
    (* chaos arms at executor creation, so chaos shards must not share a
       cached engine *)
    if spec.Run_spec.chaos <> None then None
    else begin
      let key =
        {
          k_defense = spec.Run_spec.defense.Defense.name;
          k_mode = spec.Run_spec.mode;
          k_kind = spec.Run_spec.engine;
          k_format = spec.Run_spec.trace_format;
          k_boot = spec.Run_spec.boot_insts;
          k_sim = spec.Run_spec.sim_config;
        }
      in
      match Hashtbl.find_opt cache key with
      | Some es -> Some es
      | None ->
          let stats = Stats.create ~metrics () in
          let e =
            Engine.create ~boot_insts:spec.Run_spec.boot_insts
              ~format:spec.Run_spec.trace_format
              ?sim_config:spec.Run_spec.sim_config ~kind:spec.Run_spec.engine
              ~mode:spec.Run_spec.mode spec.Run_spec.defense stats
          in
          Engine.warm e;
          Hashtbl.replace cache key (e, stats);
          Some (e, stats)
    end
end

let locked lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception exn ->
      Mutex.unlock lock;
      raise exn

let by_preset job_of items =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let name = (job_of x).spec.Run_spec.defense.Defense.name in
      if not (Hashtbl.mem tbl name) then begin
        order := name :: !order;
        Hashtbl.replace tbl name (ref [])
      end;
      let group = Hashtbl.find tbl name in
      group := x :: !group)
    items;
  List.rev_map (fun name -> List.rev !(Hashtbl.find tbl name)) !order

(* One preset's shards (non-empty, in job order) merged into a row. *)
let row_of (group : shard list) =
  let spec = (List.hd group).job.spec in
  let completed =
    List.filter_map
      (fun s -> match s.outcome with Completed r -> Some r | Crashed _ -> None)
      group
  in
  let wall_s = List.fold_left (fun acc (s : shard) -> acc +. s.wall_s) 0. group in
  let crashed_shards = List.length group - List.length completed in
  let result =
    Campaign.merge spec.Run_spec.defense
      ~fallback_contract:(Run_spec.contract_name spec)
      ~elapsed:wall_s ~crashed:crashed_shards completed
  in
  let compute = List.fold_left (fun acc r -> acc +. r.Campaign.duration) 0. completed in
  {
    result;
    shards = List.length group;
    crashed_shards;
    wall_s;
    inputs_per_sec =
      (if compute > 0. then float_of_int result.Campaign.test_cases /. compute
       else 0.);
    time_to_first_leak =
      List.fold_left
        (fun acc r ->
          match r.Campaign.detection_times with
          | first :: _ -> (
              match acc with
              | None -> Some first
              | Some t -> Some (Float.min t first))
          | [] -> acc)
        None completed;
  }

let run ?(domains = 1) ?(metrics = Obs.noop) ?journal_dir
    ?(checkpoint_every = 10) js : report =
  (* merge position is list order, whatever ids the caller set *)
  let js = List.mapi (fun i j -> { j with id = i }) js in
  let n = List.length js in
  let domains = max 1 (min domains (max 1 n)) in
  let started = Obs.Clock.now_s () in
  let telemetry = Obs.is_enabled metrics in
  (* round-robin initial distribution in job order *)
  let queues = Array.make domains [] in
  List.iteri (fun i j -> queues.(i mod domains) <- j :: queues.(i mod domains)) js;
  Array.iteri (fun d q -> queues.(d) <- List.rev q) queues;
  let lock = Mutex.create () in
  let results = Array.make (max 1 n) None in
  let next_job d =
    locked lock (fun () ->
        match queues.(d) with
        | j :: rest ->
            queues.(d) <- rest;
            Some j
        | [] -> (
            (* steal the tail of the longest other queue: owners pop from
               the front, thieves from the back *)
            let victim = ref (-1) and best = ref 0 in
            Array.iteri
              (fun i q ->
                let l = List.length q in
                if i <> d && l > !best then begin
                  victim := i;
                  best := l
                end)
              queues;
            if !victim < 0 then None
            else
              let rec split acc = function
                | [ last ] -> (List.rev acc, last)
                | x :: rest -> split (x :: acc) rest
                | [] -> assert false
              in
              let front, last = split [] queues.(!victim) in
              queues.(!victim) <- front;
              Some last))
  in
  let run_shard dm cache (job : job) =
    let spec = job.spec in
    let t0 = Obs.Clock.now_s () in
    let journal_path =
      Option.map
        (fun dir ->
          Filename.concat dir
            (Printf.sprintf "shard_%03d_%s.json" job.id
               spec.Run_spec.defense.Defense.name))
        journal_dir
    in
    let engine = Engine_cache.get cache ~metrics:dm spec in
    let outcome =
      try Completed (Campaign.run ?journal_path ~checkpoint_every ~metrics:dm ?engine spec)
      with exn -> Crashed (Fault.exn_info exn)
    in
    { job; outcome; wall_s = Obs.Clock.elapsed_s ~since:t0 }
  in
  let worker d () =
    let dm = if telemetry then Obs.create () else Obs.noop in
    let cache = Engine_cache.create () in
    let rec loop () =
      match next_job d with
      | None -> ()
      | Some job ->
          results.(job.id) <- Some (run_shard dm cache job);
          loop ()
    in
    loop ();
    Obs.Snapshot.of_registry dm
  in
  let snapshots =
    if domains = 1 then [ worker 0 () ]
    else
      List.init domains (fun d -> Domain.spawn (fun () -> worker d ()))
      |> List.map (fun d ->
             (* a domain dying outside shard isolation must not take the
                sweep down; its unfinished shards surface as Crashed below *)
             try Domain.join d with _ -> Obs.Snapshot.empty)
  in
  let shards =
    List.map
      (fun (job : job) ->
        match results.(job.id) with
        | Some s -> s
        | None ->
            {
              job;
              outcome = Crashed (Fault.exn_info (Failure "worker domain died"));
              wall_s = 0.;
            })
      js
  in
  (* deterministic merge, in job order *)
  let rows = List.map row_of (by_preset (fun s -> s.job) shards) in
  let crashed =
    List.length
      (List.filter (fun s -> match s.outcome with Crashed _ -> true | _ -> false) shards)
  in
  {
    rows;
    shards;
    domains;
    jobs = n;
    crashed;
    wall_s = Obs.Clock.elapsed_s ~since:started;
    test_cases =
      List.fold_left (fun acc (r : row) -> acc + r.result.Campaign.test_cases) 0 rows;
    metrics =
      List.fold_left (fun acc s -> Obs.Snapshot.merge acc s) Obs.Snapshot.empty
        snapshots;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* Only scheduling-independent content: seeds fix the violations, so two
   runs of the same jobs must digest identically whatever the domain count,
   steal order, worker count or crash/reassignment history.  Wall-clock
   fields are deliberately absent.  The digest bytes live here, in one
   place, so the in-process scheduler and the distributed coordinator can
   never drift apart: both reduce their results to [Ident.row]s and call
   {!Ident.fingerprint}. *)
module Ident = struct
  type v = {
    ctrace_hash : int64;
    hash_a : int64;
    hash_b : int64;
    program_text : string;
    signature : string;
  }

  type row = {
    defense : string;
    contract : string;
    rounds : int;
    discarded : int;
    test_cases : int;
    violations : v list;
  }

  (* Identity uses the hashes captured at detection time, not a recompute
     from [trace_a]/[trace_b]: a journal-resumed violation's traces are
     re-executions under a fresh context, but its stored hashes are the
     originals — so resumed shards fingerprint identically. *)
  let of_violation (v : Violation.t) =
    {
      ctrace_hash = v.Violation.ctrace_hash;
      hash_a = v.Violation.trace_a_hash;
      hash_b = v.Violation.trace_b_hash;
      program_text = v.Violation.program_text;
      signature = Option.value v.Violation.signature ~default:"";
    }

  let fingerprint rows =
    let buf = Buffer.create 4096 in
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "%s|%s|%d|%d|%d|%d\n" r.defense r.contract r.rounds
             r.discarded r.test_cases
             (List.length r.violations));
        List.iter
          (fun v ->
            Buffer.add_string buf
              (Printf.sprintf "%Lx|%Lx|%Lx|%s\n" v.ctrace_hash v.hash_a
                 v.hash_b v.program_text))
          r.violations)
      rows;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  (* Dedup keys are deliberately NOT part of the fingerprint bytes above:
     classification on/off must not move the determinism gate. *)
  let dedup_key v =
    if v.signature <> "" then "s:" ^ v.signature
    else Printf.sprintf "h:%Lx%Lx%Lx" v.ctrace_hash v.hash_a v.hash_b

  let distinct vs =
    let tbl = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace tbl (dedup_key v) ()) vs;
    Hashtbl.length tbl
end

let ident_rows report =
  List.map
    (fun { result = r; _ } ->
      {
        Ident.defense = r.Campaign.defense.Defense.name;
        contract = r.Campaign.contract_name;
        rounds = r.Campaign.programs_run;
        discarded = r.Campaign.discarded_programs;
        test_cases = r.Campaign.test_cases;
        violations = List.map Ident.of_violation r.Campaign.violations;
      })
    report.rows

let fingerprint report = Ident.fingerprint (ident_rows report)

let to_json report =
  let counts name l =
    Json.Obj (List.map (fun (c, k) -> (name c, Json.Int k)) l)
  in
  let row row =
    let r = row.result in
    Json.Obj
      [
        ("defense", Json.Str r.Campaign.defense.Defense.name);
        ("contract", Json.Str r.Campaign.contract_name);
        ("shards", Json.Int row.shards);
        ("crashed_shards", Json.Int row.crashed_shards);
        ("rounds", Json.Int r.Campaign.programs_run);
        ("discarded", Json.Int r.Campaign.discarded_programs);
        ("test_cases", Json.Int r.Campaign.test_cases);
        ("violations", Json.Int (List.length r.Campaign.violations));
        ( "distinct_signatures",
          Json.Int (Ident.distinct (List.map Ident.of_violation r.Campaign.violations)) );
        ("violation_classes", counts Analysis.class_name r.Campaign.violation_classes);
        ("faults", counts Fault.class_name r.Campaign.fault_counts);
        ("quarantined", Json.Int r.Campaign.quarantined);
        ("wall_s", Json.Float row.wall_s);
        ("inputs_per_sec", Json.Float row.inputs_per_sec);
        ( "time_to_first_leak",
          Json.option (fun t -> Json.Float t) row.time_to_first_leak );
        ("budget_exhausted", Json.Bool r.Campaign.budget_exhausted);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "amulet.sweep/1");
         ("domains", Json.Int report.domains);
         ("jobs", Json.Int report.jobs);
         ("crashed", Json.Int report.crashed);
         ("wall_s", Json.Float report.wall_s);
         ("test_cases", Json.Int report.test_cases);
         ("fingerprint", Json.Str (fingerprint report));
         ("rows", Json.List (List.map row report.rows));
         ("metrics", Obs.Snapshot.json report.metrics);
       ])

let pp fmt report =
  Format.fprintf fmt
    "sweep: %d jobs on %d domain(s), %d crashed, %.1f s, %d test cases@."
    report.jobs report.domains report.crashed report.wall_s report.test_cases;
  Format.fprintf fmt "  %-22s %-9s %6s %6s %8s %6s %9s %8s@." "defense"
    "contract" "shards" "rounds" "tc" "viol" "tc/s" "ttfl";
  List.iter
    (fun row ->
      let r = row.result in
      Format.fprintf fmt "  %-22s %-9s %3d%s %6d %8d %6d %9.0f %8s%s@."
        r.Campaign.defense.Defense.name r.Campaign.contract_name row.shards
        (if row.crashed_shards > 0 then Printf.sprintf "(%d!)" row.crashed_shards
         else "   ")
        r.Campaign.programs_run r.Campaign.test_cases
        (List.length r.Campaign.violations)
        row.inputs_per_sec
        (match row.time_to_first_leak with
        | Some t -> Printf.sprintf "%.2fs" t
        | None -> "-")
        (if r.Campaign.budget_exhausted then "  [budget]" else ""))
    report.rows
