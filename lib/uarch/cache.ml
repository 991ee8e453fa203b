(** Set-associative cache tag array with true-LRU replacement.

    Only tags and replacement state are modeled: data always lives in the
    simulator's architectural memory image, so the cache determines {e
    timing} and the {e final-state microarchitectural trace}, never values.
    Addresses are byte addresses; lines are identified by their line-aligned
    address.

    The representation is structure-of-arrays (flat [tags]/[valid]/[lru]
    arrays indexed by [set * ways + way]) plus an incrementally-maintained
    list of the valid way indices, so snapshot and restore both run in
    O(occupancy) rather than O(capacity) — the pooled execution engine
    snapshots the cache context once per input. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bytes : int;
  tags_a : int array;  (** [tags_a.(set * ways + way)] *)
  valid_a : bool array;
  lru_a : int array;
  valid_list : int array;
      (** the first [n_valid] slots hold the flat indices of the valid ways,
          in no particular order — lets snapshots run in O(occupancy) *)
  pos_a : int array;  (** way index -> its slot in [valid_list] (when valid) *)
  mutable n_valid : int;
  mutable tick : int;  (** LRU clock *)
  m_hits : Amulet_obs.Obs.counter;
  m_misses : Amulet_obs.Obs.counter;
  m_evictions : Amulet_obs.Obs.counter;
}

let create ?(metrics = Amulet_obs.Obs.noop) ~name ~sets ~ways ~line_bytes () =
  assert (sets > 0 && ways > 0);
  assert (line_bytes land (line_bytes - 1) = 0);
  let prefix = "uarch." ^ String.lowercase_ascii name in
  {
    name;
    sets;
    ways;
    line_bytes;
    tags_a = Array.make (sets * ways) 0;
    valid_a = Array.make (sets * ways) false;
    lru_a = Array.make (sets * ways) 0;
    valid_list = Array.make (sets * ways) 0;
    pos_a = Array.make (sets * ways) 0;
    n_valid = 0;
    tick = 0;
    m_hits = Amulet_obs.Obs.counter metrics (prefix ^ ".hits");
    m_misses = Amulet_obs.Obs.counter metrics (prefix ^ ".misses");
    m_evictions = Amulet_obs.Obs.counter metrics (prefix ^ ".evictions");
  }

(** Line-aligned address containing byte address [addr]. *)
let line_of t addr = addr land lnot (t.line_bytes - 1)

let set_of t line = line / t.line_bytes mod t.sets

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* valid-way index maintenance: every [valid_a] transition goes through
   these so [n_valid]/[valid_list] always mirror the valid bits *)
let idx_add t i =
  t.valid_list.(t.n_valid) <- i;
  t.pos_a.(i) <- t.n_valid;
  t.n_valid <- t.n_valid + 1

let idx_remove t i =
  let p = t.pos_a.(i) in
  let last = t.valid_list.(t.n_valid - 1) in
  t.valid_list.(p) <- last;
  t.pos_a.(last) <- p;
  t.n_valid <- t.n_valid - 1

(* index of [line]'s way within its set, or -1 *)
let find_idx t line =
  let base = set_of t line * t.ways in
  let rec go i =
    if i >= t.ways then -1
    else if t.valid_a.(base + i) && t.tags_a.(base + i) = line then base + i
    else go (i + 1)
  in
  go 0

(* first free (invalid) way index within the set of [line], or -1 *)
let free_idx t line =
  let base = set_of t line * t.ways in
  let rec go i =
    if i >= t.ways then -1
    else if not t.valid_a.(base + i) then base + i
    else go (i + 1)
  in
  go 0

(* LRU victim index within the full set of [line]: min lru, earliest way on
   ties (strict [<] scanning from way 0) *)
let victim_idx t line =
  let base = set_of t line * t.ways in
  let victim = ref base in
  for i = base + 1 to base + t.ways - 1 do
    if t.lru_a.(i) < t.lru_a.(!victim) then victim := i
  done;
  !victim

(** Is the line present? (no replacement-state update) *)
let probe t line = find_idx t line >= 0

(** Is the line present? Updates LRU on hit. *)
let touch t line =
  let i = find_idx t line in
  if i >= 0 then begin
    t.lru_a.(i) <- next_tick t;
    Amulet_obs.Obs.incr t.m_hits;
    true
  end
  else begin
    Amulet_obs.Obs.incr t.m_misses;
    false
  end

(** Does the set of [line] have an invalid (free) way? *)
let has_free_way t line = free_idx t line >= 0

(** The line that would be evicted to make room for [line] (LRU victim), or
    [None] if a free way exists.  Does not modify state (gem5 Ruby's
    [cacheProbe]). *)
let victim_of t line =
  if free_idx t line >= 0 then None else Some t.tags_a.(victim_idx t line)

(** Install [line], evicting the LRU victim if the set is full.  Returns the
    evicted line, if any.  Installing an already-present line just refreshes
    its LRU state. *)
let install t line =
  let i = find_idx t line in
  if i >= 0 then begin
    t.lru_a.(i) <- next_tick t;
    None
  end
  else begin
    let free = free_idx t line in
    let target, evicted =
      if free >= 0 then free, None
      else
        let v = victim_idx t line in
        v, Some t.tags_a.(v)
    in
    if free >= 0 then idx_add t target;
    t.tags_a.(target) <- line;
    t.valid_a.(target) <- true;
    t.lru_a.(target) <- next_tick t;
    if evicted <> None then Amulet_obs.Obs.incr t.m_evictions;
    evicted
  end

(** Remove [line] if present; returns whether it was present. *)
let invalidate t line =
  let i = find_idx t line in
  if i >= 0 then begin
    t.valid_a.(i) <- false;
    idx_remove t i;
    true
  end
  else false

(** Evict the LRU victim of [line]'s set (without installing anything);
    returns the evicted line.  This models the InvisiSpec implementation bug
    UV1, where a speculative miss on a full set triggers an L1 replacement
    even though no line is installed. *)
let force_replacement t line =
  if free_idx t line >= 0 then None
  else begin
    let v = victim_idx t line in
    t.valid_a.(v) <- false;
    idx_remove t v;
    Amulet_obs.Obs.incr t.m_evictions;
    Some t.tags_a.(v)
  end

(** All valid line addresses, sorted (the final-state trace). *)
let tags t =
  let acc = ref [] in
  for i = Array.length t.valid_a - 1 downto 0 do
    if t.valid_a.(i) then acc := t.tags_a.(i) :: !acc
  done;
  List.sort compare !acc

let reset t =
  Array.fill t.valid_a 0 (Array.length t.valid_a) false;
  t.n_valid <- 0;
  t.tick <- 0

let occupancy t = List.length (tags t)

(** Digest of the full replacement state: every valid way's index, tag and
    LRU stamp, plus the LRU clock.  Equal digests mean the two states answer
    every future lookup, install and eviction identically. *)
let digest t =
  let b = Buffer.create (16 * (t.n_valid + 1)) in
  Array.iteri
    (fun i valid ->
      if valid then
        Buffer.add_string b
          (Printf.sprintf "%d:%x:%d;" i t.tags_a.(i) t.lru_a.(i)))
    t.valid_a;
  Buffer.add_string b (string_of_int t.tick);
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Snapshots (validation reruns restore the exact cache context)       *)
(* ------------------------------------------------------------------ *)

(* Sparse: only the valid ways are captured, so the cost is proportional to
   occupancy, not capacity (the pooled engine snapshots every input; a
   mostly-empty L2 would otherwise dominate the per-input overhead). *)
type snapshot = {
  snap_idx : int array;  (** flat indices of the valid ways *)
  snap_tags : int array;  (** parallel to [snap_idx] *)
  snap_lru : int array;  (** parallel to [snap_idx] *)
  snap_tick : int;
}

let snapshot t : snapshot =
  let n = t.n_valid in
  let snap_idx = Array.make n 0 in
  let snap_tags = Array.make n 0 in
  let snap_lru = Array.make n 0 in
  for k = 0 to n - 1 do
    let i = t.valid_list.(k) in
    snap_idx.(k) <- i;
    snap_tags.(k) <- t.tags_a.(i);
    snap_lru.(k) <- t.lru_a.(i)
  done;
  { snap_idx; snap_tags; snap_lru; snap_tick = t.tick }

let restore t (s : snapshot) =
  for k = 0 to t.n_valid - 1 do
    t.valid_a.(t.valid_list.(k)) <- false
  done;
  t.n_valid <- 0;
  for k = 0 to Array.length s.snap_idx - 1 do
    let i = s.snap_idx.(k) in
    t.valid_a.(i) <- true;
    t.tags_a.(i) <- s.snap_tags.(k);
    t.lru_a.(i) <- s.snap_lru.(k);
    idx_add t i
  done;
  t.tick <- s.snap_tick

let pp fmt t =
  Format.fprintf fmt "%s(%dx%d): [%a]" t.name t.sets t.ways
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ")
       (fun f l -> Format.fprintf f "0x%x" l))
    (tags t)
