(* In-memory span recorder for the traced run.  A span is one timed call
   into a layer: its layer, start and end (host nanoseconds), the span
   that was open when it started, and the campaign round it belongs to.
   Spans live in flat arrays and are written out once, after the run. *)

type t = {
  mutable layer : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable round : int array;
  mutable n : int;
  mutable open_span : int;  (* innermost open span, -1 at top level *)
  mutable current_round : int;  (* -1 outside the campaign's rounds *)
}

(* Layer names, registered once; a layer is its index in this table. *)
let names = ref [||]

let layer name =
  names := Array.append !names [| name |];
  Array.length !names - 1

let layer_name l = !names.(l)

let create () =
  let cap = 1 lsl 16 in
  {
    layer = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap 0;
    round = Array.make cap 0;
    n = 0;
    open_span = -1;
    current_round = -1;
  }

let set_round t r = t.current_round <- r
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let grow t =
  let cap = 2 * Array.length t.layer in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.layer <- extend t.layer 0;
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.parent <- extend t.parent 0;
  t.round <- extend t.round 0

(* Time [f ()] as one span of layer [l]. *)
let span t l f =
  if t.n = Array.length t.layer then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.layer.(i) <- l;
  t.parent.(i) <- t.open_span;
  t.round.(i) <- t.current_round;
  t.open_span <- i;
  let finish () =
    t.stop.(i) <- now_ns ();
    t.open_span <- t.parent.(i)
  in
  t.start.(i) <- now_ns ();
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count t = t.n

(* Per-layer totals: (calls, self seconds), where a span's self time is
   its duration minus the durations of its direct children. *)
let per_layer t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let n_layers = Array.length !names in
  let calls = Array.make n_layers 0 and self = Array.make n_layers 0. in
  for i = 0 to t.n - 1 do
    let l = t.layer.(i) in
    calls.(l) <- calls.(l) + 1;
    self.(l) <- self.(l) +. ((t.stop.(i) -. t.start.(i) -. child.(i)) *. 1e-9)
  done;
  (calls, self)

(* Tab-separated, one span per line: id, layer, start_ns, end_ns, parent
   id (-1 at top level), round (-1 outside the rounds). *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tlayer\tstart_ns\tend_ns\tparent\tround\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%.0f\t%.0f\t%d\t%d\n" i
          (layer_name t.layer.(i))
          t.start.(i) t.stop.(i) t.parent.(i) t.round.(i)
      done)
