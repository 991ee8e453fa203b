(** Zero-dependency telemetry registry.

    A registry holds named counters, gauges, timers and histograms.  The
    hot-path operations ({!incr}, {!add}, {!observe}) are O(1): one load of
    the registry's shared [enabled] flag and, when enabled, one in-place
    mutation — no hashing, no allocation.  Metric handles are resolved once
    at component-construction time and kept in the component's record, so
    instrumented code never pays a name lookup per event.

    Instrumentation built on this module must be {e trace-invisible}:
    metrics only observe, they never influence simulated behaviour, so
    hardware and contract traces are byte-identical with telemetry on or
    off.  The {!noop} registry (permanently disabled) is the default
    everywhere, making uninstrumented use free. *)

(** {1 Registry} *)

type t
(** A metric registry. *)

val create : ?enabled:bool -> unit -> t
(** Fresh registry; [enabled] defaults to [true]. *)

val noop : t
(** A shared, permanently-disabled registry: handles resolved against it
    never record anything.  Used as the default for every [?metrics]
    parameter in the stack. *)

val set_enabled : t -> bool -> unit
(** Flip recording on or off for every metric of the registry.  [noop]
    cannot be enabled.  Used e.g. to exclude the simulator's synthetic
    warm-boot workload from hardware counters so that engines booting a
    different number of simulators still accumulate identical counts. *)

val is_enabled : t -> bool

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Resolve (or create) the counter [name].  Resolving the same name twice
    returns the same underlying cell. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Timers}

    A timer accumulates a count of events and their total duration in
    seconds.  Record durations measured with {!Clock}. *)

type timer

val timer : t -> string -> timer

val record : timer -> float -> unit
(** [record tm seconds] adds one event of [seconds] duration (clamped to
    [>= 0]). *)

val time : timer -> (unit -> 'a) -> 'a
(** Run a thunk and record its wall-clock duration. *)

(** {1 Histograms}

    Log-bucketed latency histograms: bucket [i] counts observations in
    [(bound(i-1), bound(i)]] seconds with [bound i = 1e-6 * 2^i] — from
    1 µs up to ~2 minutes, plus an overflow bucket. *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Record one observation in seconds. *)

(** {1 Monotonic-safe clock} *)

module Clock : sig
  val now_s : unit -> float
  (** Current wall-clock time in seconds (epoch). *)

  val elapsed_s : since:float -> float
  (** Seconds elapsed since [since], clamped to [>= 0].  The wall clock is
      not monotonic — an NTP step can move it backwards — so raw
      [now () -. since] can be negative; every deadline/duration
      computation in the stack goes through this clamp. *)

  val elapsed_ms : since:float -> float
  (** Milliseconds elapsed since [since], clamped to [>= 0]. *)
end

(** {1 Snapshots} *)

type registry = t
(** Alias so {!Snapshot} can refer to the registry type after shadowing
    [t] with its own. *)

module Snapshot : sig
  type timer_v = { events : int; total_s : float }

  type histogram_v = {
    observations : int;
    sum_s : float;
    buckets : int array;  (** one slot per log bucket, plus overflow *)
  }

  (** An immutable, name-sorted copy of a registry's metrics. *)
  type t = {
    counters : (string * int) list;
    gauges : (string * float) list;
    timers : (string * timer_v) list;
    histograms : (string * histogram_v) list;
  }

  val empty : t

  val of_registry : registry -> t
  (** Immutable copy of the registry's current metric values. *)

  val diff : older:t -> newer:t -> t
  (** Per-name difference [newer - older] for counters, timers and
      histograms (gauges keep the newer value).  Names present in only one
      snapshot are kept as-is.  This is the "counter delta between two
      executions" a forensics report shows. *)

  val merge : t -> t -> t
  (** Pointwise sum (gauges keep the max) — used to combine the per-domain
      registries of a parallel campaign. *)

  val filter : (string -> bool) -> t -> t
  (** Keep only metrics whose name satisfies the predicate. *)

  val counter_value : t -> string -> int
  (** Value of a counter in the snapshot, [0] when absent. *)

  val percentile : histogram_v -> float -> float
  (** [percentile h p] for [p] in [0..100]: upper bound (seconds) of the
      bucket containing the [p]-th percentile observation; [0.] when
      empty. *)

  val bucket_bound : int -> float
  (** Upper bound in seconds of log bucket [i]. *)

  val json : t -> Json.t
  (** The snapshot as a JSON object, for embedding in larger documents.
      Histograms are exported with derived p50/p90/p99 alongside raw
      buckets. *)

  val to_json : t -> string
  (** [Json.to_string (json s)]. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable dump: one metric per line, zero-valued metrics
      omitted. *)
end
