(** Set-associative cache tag array with true-LRU replacement.  Only tags
    and replacement state are modeled: the cache determines timing and the
    final-state trace, never values. *)

type t

val create :
  ?metrics:Amulet_obs.Obs.t ->
  name:string ->
  sets:int ->
  ways:int ->
  line_bytes:int ->
  unit ->
  t
(** [metrics] (default {!Amulet_obs.Obs.noop}) receives
    [uarch.<name>.hits/misses/evictions] counters.  Counting is
    trace-invisible: it never changes tag or replacement state. *)

val line_of : t -> int -> int
(** Line-aligned address containing the byte address. *)

val set_of : t -> int -> int

val probe : t -> int -> bool
(** Presence check without touching replacement state. *)

val touch : t -> int -> bool
(** Presence check; updates LRU on hit. *)

val has_free_way : t -> int -> bool

val victim_of : t -> int -> int option
(** The line an install would evict (LRU victim); [None] if a way is free.
    Pure (gem5 Ruby's [cacheProbe]). *)

val install : t -> int -> int option
(** Install a line; returns the evicted victim, if any. *)

val invalidate : t -> int -> bool

val force_replacement : t -> int -> int option
(** Evict the LRU victim of the line's set without installing anything
    (models InvisiSpec's UV1 bug). *)

val tags : t -> int list
(** All valid line addresses, sorted — the final-state trace. *)

val reset : t -> unit
val occupancy : t -> int

val digest : t -> Digest.t
(** Digest of the tags, LRU stamps and LRU clock: equal digests mean
    identical replacement state (differential tests). *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val pp : Format.formatter -> t -> unit
