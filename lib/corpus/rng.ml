(** Deterministic pseudo-random number generator (splitmix64).

    Every random decision in AMuLeT — program shapes, input values, boosting
    mutations — flows through a seeded instance, so campaigns are exactly
    reproducible from their seed (Revizor's inputs are likewise
    "generated with a seeded PRNG"). *)

type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let split t = { state = Int64.add t.state gamma }

(* The splitmix64 output function of one state.  Inlined everywhere so
   the bulk loop below keeps its state unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The byte [int t 256] draws from state [s]: bits 2-9 of the output. *)
let[@inline] byte s =
  Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical (mix s) 2) land 0xFF)

(** Next raw 64-bit value. *)
let next64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

(** Uniform integer in [0, bound). *)
let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

(* Splitmix64 is counter-based: after k draws the state is s0 + k*gamma.
   The bulk fill keeps that counter in a local (unboxed) int64 and stores
   it back once, so it allocates nothing per byte. *)

let fill_bytes t b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Rng.fill_bytes";
  let s = ref t.state in
  for i = off to off + len - 1 do
    s := Int64.add !s gamma;
    Bytes.unsafe_set b i (byte !s)
  done;
  t.state <- !s

(** Uniform boolean with probability [p] of [true]. *)
let bool t ~p = float_of_int (int t 1_000_000) /. 1_000_000. < p

(** Uniform choice from a non-empty list. *)
let choose t xs = List.nth xs (int t (List.length xs))

(** Weighted choice: [(weight, value)] pairs, weights positive. *)
let weighted t pairs =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 pairs in
  let pick = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.weighted: empty"
    | (w, v) :: rest -> if pick < acc + w then v else go (acc + w) rest
  in
  go 0 pairs
