(** Zero-dependency telemetry registry.  See obs.mli for the contract.

    Representation notes: every metric handle carries the registry's shared
    [enabled] ref, so the hot path is a single deref plus an in-place
    mutation — no hashtable access after the handle is resolved.  The
    registry's hashtables are only touched at resolve time and at snapshot
    time. *)

(* ------------------------------------------------------------------ *)
(* Metric cells                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { c_enabled : bool ref; mutable c_value : int }
type gauge = { g_enabled : bool ref; mutable g_value : float }

type timer = {
  t_enabled : bool ref;
  mutable t_events : int;
  mutable t_total : float;
}

(* Log-bucketed histogram: bucket [i] covers (bound(i-1), bound(i)]
   seconds with bound i = 1e-6 * 2^i; the last slot is overflow. *)
let hist_buckets = 28

let bucket_bound i = 1e-6 *. Float.of_int (1 lsl i)

type histogram = {
  h_enabled : bool ref;
  mutable h_observations : int;
  mutable h_sum : float;
  h_counts : int array; (* hist_buckets + 1 slots, last = overflow *)
}

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  enabled : bool ref;
  permanently_off : bool;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

type registry = t

let create ?(enabled = true) () =
  {
    enabled = ref enabled;
    permanently_off = false;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    timers = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let noop =
  {
    enabled = ref false;
    permanently_off = true;
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
    timers = Hashtbl.create 1;
    histograms = Hashtbl.create 1;
  }

let set_enabled t b = if not t.permanently_off then t.enabled := b
let is_enabled t = !(t.enabled)

(* The shared [noop] registry hands out detached cells instead of
   registering them: it is reached from every component that was not given
   a live registry — concurrently, across domains — so its tables must
   never be mutated, and its snapshot must stay empty. *)
let resolve t tbl name make =
  if t.permanently_off then make ()
  else
    match Hashtbl.find_opt tbl name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace tbl name m;
        m

let counter t name =
  resolve t t.counters name (fun () -> { c_enabled = t.enabled; c_value = 0 })

let incr c = if !(c.c_enabled) then c.c_value <- c.c_value + 1
let add c n = if !(c.c_enabled) then c.c_value <- c.c_value + n
let value c = c.c_value

let gauge t name =
  resolve t t.gauges name (fun () -> { g_enabled = t.enabled; g_value = 0. })

let set_gauge g v = if !(g.g_enabled) then g.g_value <- v
let gauge_value g = g.g_value

let timer t name =
  resolve t t.timers name (fun () ->
      { t_enabled = t.enabled; t_events = 0; t_total = 0. })

let record tm seconds =
  if !(tm.t_enabled) then begin
    tm.t_events <- tm.t_events + 1;
    tm.t_total <- tm.t_total +. Float.max 0. seconds
  end

let histogram t name =
  resolve t t.histograms name (fun () ->
      {
        h_enabled = t.enabled;
        h_observations = 0;
        h_sum = 0.;
        h_counts = Array.make (hist_buckets + 1) 0;
      })

let bucket_index v =
  let rec go i = if i >= hist_buckets || v <= bucket_bound i then i else go (i + 1) in
  go 0

let observe h v =
  if !(h.h_enabled) then begin
    let v = Float.max 0. v in
    h.h_observations <- h.h_observations + 1;
    h.h_sum <- h.h_sum +. v;
    let i = bucket_index v in
    h.h_counts.(i) <- h.h_counts.(i) + 1
  end

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

module Clock = struct
  let now_s () = Unix.gettimeofday ()

  (* The wall clock can step backwards (NTP); clamping keeps every
     duration and deadline computation in the stack non-negative. *)
  let elapsed_s ~since = Float.max 0. (now_s () -. since)
  let elapsed_ms ~since = 1000. *. elapsed_s ~since
end

let time tm f =
  if !(tm.t_enabled) then begin
    let t0 = Clock.now_s () in
    let finally () = record tm (Clock.elapsed_s ~since:t0) in
    Fun.protect ~finally f
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type timer_v = { events : int; total_s : float }

  type histogram_v = {
    observations : int;
    sum_s : float;
    buckets : int array;
  }

  type t = {
    counters : (string * int) list;
    gauges : (string * float) list;
    timers : (string * timer_v) list;
    histograms : (string * histogram_v) list;
  }

  let empty = { counters = []; gauges = []; timers = []; histograms = [] }

  let bucket_bound = bucket_bound

  let sorted_bindings tbl proj =
    Hashtbl.fold (fun name m acc -> (name, proj m) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let of_registry (r : registry) =
    {
      counters = sorted_bindings r.counters (fun c -> c.c_value);
      gauges = sorted_bindings r.gauges (fun g -> g.g_value);
      timers =
        sorted_bindings r.timers (fun tm ->
            { events = tm.t_events; total_s = tm.t_total });
      histograms =
        sorted_bindings r.histograms (fun h ->
            {
              observations = h.h_observations;
              sum_s = h.h_sum;
              buckets = Array.copy h.h_counts;
            });
    }

  (* Merge two sorted assoc lists pointwise: [combine] when a name appears
     in both, [keep] when it appears in only one side. *)
  let zip_assoc combine keep_a keep_b =
    let rec go a b =
      match (a, b) with
      | [], rest -> List.map (fun (n, v) -> (n, keep_b v)) rest
      | rest, [] -> List.map (fun (n, v) -> (n, keep_a v)) rest
      | (na, va) :: ta, (nb, vb) :: tb ->
          let c = String.compare na nb in
          if c = 0 then (na, combine va vb) :: go ta tb
          else if c < 0 then (na, keep_a va) :: go ta b
          else (nb, keep_b vb) :: go a tb
    in
    go

  let diff ~older ~newer =
    {
      counters =
        zip_assoc (fun o n -> n - o) (fun o -> -o) Fun.id older.counters
          newer.counters;
      gauges = zip_assoc (fun _ n -> n) Fun.id Fun.id older.gauges newer.gauges;
      timers =
        zip_assoc
          (fun o n ->
            { events = n.events - o.events; total_s = n.total_s -. o.total_s })
          (fun o -> { events = -o.events; total_s = -.o.total_s })
          Fun.id older.timers newer.timers;
      histograms =
        zip_assoc
          (fun o n ->
            {
              observations = n.observations - o.observations;
              sum_s = n.sum_s -. o.sum_s;
              buckets = Array.mapi (fun i nb -> nb - o.buckets.(i)) n.buckets;
            })
          (fun o ->
            {
              observations = -o.observations;
              sum_s = -.o.sum_s;
              buckets = Array.map (fun b -> -b) o.buckets;
            })
          Fun.id older.histograms newer.histograms;
    }

  let merge a b =
    {
      counters = zip_assoc ( + ) Fun.id Fun.id a.counters b.counters;
      gauges = zip_assoc Float.max Fun.id Fun.id a.gauges b.gauges;
      timers =
        zip_assoc
          (fun x y ->
            { events = x.events + y.events; total_s = x.total_s +. y.total_s })
          Fun.id Fun.id a.timers b.timers;
      histograms =
        zip_assoc
          (fun x y ->
            {
              observations = x.observations + y.observations;
              sum_s = x.sum_s +. y.sum_s;
              buckets = Array.mapi (fun i xb -> xb + y.buckets.(i)) x.buckets;
            })
          Fun.id Fun.id a.histograms b.histograms;
    }

  let filter keep t =
    let f l = List.filter (fun (n, _) -> keep n) l in
    {
      counters = f t.counters;
      gauges = f t.gauges;
      timers = f t.timers;
      histograms = f t.histograms;
    }

  let counter_value t name =
    match List.assoc_opt name t.counters with Some v -> v | None -> 0

  let percentile (h : histogram_v) p =
    if h.observations <= 0 then 0.
    else begin
      let rank =
        Float.to_int
          (Float.round (Float.of_int h.observations *. p /. 100.))
      in
      let rank = max 1 (min h.observations rank) in
      let acc = ref 0 and result = ref (bucket_bound hist_buckets) in
      (try
         Array.iteri
           (fun i c ->
             acc := !acc + c;
             if !acc >= rank then begin
               result := bucket_bound i;
               raise Exit
             end)
           h.buckets
       with Exit -> ());
      !result
    end

  let json t =
    let entries f l = Json.Obj (List.map (fun (name, v) -> (name, f v)) l) in
    Json.Obj
      [
        ("counters", entries (fun v -> Json.Int v) t.counters);
        ("gauges", entries (fun v -> Json.Float v) t.gauges);
        ( "timers",
          entries
            (fun (v : timer_v) ->
              Json.Obj
                [ ("events", Json.Int v.events); ("total_s", Json.Float v.total_s) ])
            t.timers );
        ( "histograms",
          entries
            (fun (h : histogram_v) ->
              Json.Obj
                [
                  ("observations", Json.Int h.observations);
                  ("sum_s", Json.Float h.sum_s);
                  ("p50_s", Json.Float (percentile h 50.));
                  ("p90_s", Json.Float (percentile h 90.));
                  ("p99_s", Json.Float (percentile h 99.));
                  ( "buckets",
                    Json.List
                      (Array.to_list (Array.map (fun c -> Json.Int c) h.buckets)) );
                ])
            t.histograms );
      ]

  let to_json t = Json.to_string (json t)

  let pp fmt t =
    let any = ref false in
    List.iter
      (fun (n, v) ->
        if v <> 0 then begin
          Format.fprintf fmt "%-42s %d@." n v;
          any := true
        end)
      t.counters;
    List.iter
      (fun (n, v) ->
        if v <> 0. then begin
          Format.fprintf fmt "%-42s %.3f@." n v;
          any := true
        end)
      t.gauges;
    List.iter
      (fun (n, (v : timer_v)) ->
        if v.events <> 0 then begin
          Format.fprintf fmt "%-42s %d events, %.3f s total@." n v.events
            v.total_s;
          any := true
        end)
      t.timers;
    List.iter
      (fun (n, (h : histogram_v)) ->
        if h.observations <> 0 then begin
          Format.fprintf fmt
            "%-42s %d obs, p50 %.6f s, p90 %.6f s, p99 %.6f s@." n
            h.observations (percentile h 50.) (percentile h 90.)
            (percentile h 99.);
          any := true
        end)
      t.histograms;
    if not !any then Format.fprintf fmt "(no nonzero metrics)@."
end
