(** Coverage map for feedback-guided generation.

    A "feature" is an int64 fingerprint of one qualitative behaviour a test
    program exhibited: the shape of its contract trace (which kinds of
    observations, in which order) or a log₂ bucket of a per-run pipeline
    counter (squashes, speculative issues, mispredicts, …).  The map counts
    how often each feature has been seen; a program whose run produces a
    never-seen feature is {e novel} and earns a corpus slot.

    Everything here is deterministic: features are FNV mixes of
    deterministic per-run data, and serialization sorts by feature, so two
    campaigns with the same seed build byte-identical maps regardless of
    domain count. *)

(** The per-run signal a coverage observation is derived from.  The counter
    fields come from {!Amulet_uarch.Simulator.run_stats} (the pipeline's own
    deterministic totals — NOT the detachable telemetry registry); the trace
    fields from the leakage model. *)
type feedback = {
  shape_hash : int64;  (** {!Amulet_contracts.Observation.shape_hash} fold *)
  ctrace_classes : int;  (** distinct contract-trace hashes over the inputs *)
  spec_steps : int;  (** emulator instructions on mispredicted paths *)
  cycles : int;
  committed_insts : int;
  squashes : int;
  squashed_insts : int;
  spec_issued : int;
  mispredicts : int;
}

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L
let mix h v = Int64.mul (Int64.logxor h v) fnv_prime
let feature ~tag v = mix (mix fnv_offset (Int64.of_int tag)) v

(* log₂ bucket: 0, 1, 2, 3... for 0, 1, 2-3, 4-7 ... — AFL-style count
   classing so "a few more squashes" is not novelty but "an order of
   magnitude more" is. *)
let bucket n =
  if n <= 0 then 0
  else begin
    let b = ref 0 and n = ref n in
    while !n > 0 do
      incr b;
      n := !n lsr 1
    done;
    !b
  end

let features_of (f : feedback) : int64 list =
  let cpi_x4 = f.cycles * 4 / max 1 f.committed_insts in
  [
    feature ~tag:1 f.shape_hash;
    feature ~tag:2 (Int64.of_int (bucket f.ctrace_classes));
    feature ~tag:3 (Int64.of_int (bucket f.squashes));
    feature ~tag:4 (Int64.of_int (bucket f.squashed_insts));
    feature ~tag:5 (Int64.of_int (bucket f.spec_issued));
    feature ~tag:6 (Int64.of_int (bucket f.mispredicts));
    feature ~tag:7 (Int64.of_int (bucket f.spec_steps));
    feature ~tag:8 (Int64.of_int (bucket cpi_x4));
  ]

type t = {
  hits : (int64, int) Hashtbl.t;
  mutable observations : int;  (** total [observe] calls *)
}

let create () = { hits = Hashtbl.create 256; observations = 0 }

(** Record one run's features; returns how many were never seen before. *)
let observe t (f : feedback) : int =
  t.observations <- t.observations + 1;
  List.fold_left
    (fun novel feat ->
      match Hashtbl.find_opt t.hits feat with
      | Some n ->
          Hashtbl.replace t.hits feat (n + 1);
          novel
      | None ->
          Hashtbl.add t.hits feat 1;
          novel + 1)
    0 (features_of f)

let size t = Hashtbl.length t.hits
let observations t = t.observations

(* Sorted dump so serialization (and anything derived from it) never
   depends on Hashtbl iteration order. *)
let sorted_hits t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hits []
  |> List.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b)

let to_lines t =
  Printf.sprintf "observations=%d" t.observations
  :: List.map (fun (k, v) -> Printf.sprintf "%Lx %d" k v) (sorted_hits t)

let of_lines lines =
  let t = create () in
  List.iter
    (fun line ->
      match String.index_opt line '=' with
      | Some _ ->
          Scanf.sscanf_opt line "observations=%d" (fun n ->
              t.observations <- n)
          |> ignore
      | None ->
          Scanf.sscanf_opt line "%Lx %d" (fun k v -> Hashtbl.replace t.hits k v)
          |> ignore)
    lines;
  t

let pp fmt t =
  Format.fprintf fmt "coverage: %d features over %d observations" (size t)
    t.observations
