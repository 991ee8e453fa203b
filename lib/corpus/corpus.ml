(** The seed corpus and its power-schedule scheduler.

    Each entry is a test program that earned its slot by exhibiting novel
    coverage (see {!Coverage}) or finding a violation, carrying a score
    (energy: how productive its lineage has been) and an age (rounds since
    it last produced anything novel).  The scheduler favours high-score,
    recently productive seeds and ages out stale ones — an AFL-style power
    schedule over μarch feedback instead of edge coverage.

    Determinism: entries live in insertion order, every random decision
    draws from the campaign {!Rng}, and nothing reads the clock or iterates
    a hashtable, so identical seeds produce identical corpora (and thus
    identical violation fingerprints) across engines, domain counts and
    worker fleets. *)

open Amulet_isa

type params = {
  capacity : int;  (** max live entries; lowest-score/oldest evicted *)
  max_age : int;  (** rounds without novelty before an entry is retired *)
  mutate_fraction : float;
      (** probability a round mutates a corpus seed rather than generating
          a fresh random program (when the corpus is non-empty) *)
  energy : int;  (** max stacked mutation operators per mutant *)
  seed_programs : string list;
      (** initial seeds, in {!Asm.parse_flat} or {!Asm.parse} syntax *)
}

let default_params =
  {
    capacity = 64;
    max_age = 32;
    mutate_fraction = 0.75;
    energy = 4;
    seed_programs = [];
  }

type entry = {
  program : Program.flat;
  text : string;  (** canonical {!Asm.print_flat} form; the dedup key *)
  mutable score : int;
  mutable age : int;  (** rounds since last novelty from this lineage *)
  mutable trials : int;  (** times the scheduler picked this entry *)
}

type t = {
  params : params;
  coverage : Coverage.t;
  mutable entries : entry list;  (** insertion order, oldest first *)
  mutable round : int;
  mutable evictions : int;
  mutable rejected_seeds : int;
}

let params t = t.params
let coverage t = t.coverage
let size t = List.length t.entries
let round t = t.round
let evictions t = t.evictions
let rejected_seeds t = t.rejected_seeds
let entries t = t.entries

let top t n =
  List.stable_sort (fun a b -> compare b.score a.score) t.entries
  |> List.filteri (fun i _ -> i < n)

(* Seed programs may be written in either the labelled or the flat syntax. *)
let parse_seed text =
  match Asm.parse_flat text with
  | flat -> flat
  | exception Asm.Parse_error _ -> Program.flatten (Asm.parse text)

(* Seeds scoring at least this were admitted for finding a violation (or
   were planted by the user, who presumably knows why); the scheduler
   treats their presence as the signal to shift from exploration to
   exploitation. *)
let violation_bonus = 64

(* Planted seed programs start as presumed finders: the user supplied them
   because they matter (e.g. a known-vulnerable gadget). *)
let seed_score = violation_bonus

let evict_lowest t =
  match t.entries with
  | [] -> ()
  | e0 :: _ ->
      let victim =
        List.fold_left (fun v e -> if e.score < v.score then e else v) e0 t.entries
      in
      t.entries <- List.filter (fun e -> e != victim) t.entries;
      t.evictions <- t.evictions + 1

let add_entry t program score =
  let text = Asm.print_flat program in
  if not (List.exists (fun e -> String.equal e.text text) t.entries) then begin
    t.entries <- t.entries @ [ { program; text; score; age = 0; trials = 0 } ];
    while List.length t.entries > t.params.capacity do
      evict_lowest t
    done
  end

let create ?(params = default_params) ~sandbox_bytes () =
  let t =
    {
      params;
      coverage = Coverage.create ();
      entries = [];
      round = 0;
      evictions = 0;
      rejected_seeds = 0;
    }
  in
  List.iter
    (fun text ->
      match parse_seed text with
      | flat when Amulet_static.Lint.ok (Amulet_static.Lint.check ~sandbox_bytes flat)
        ->
          add_entry t flat seed_score
      | _ -> t.rejected_seeds <- t.rejected_seeds + 1
      | exception Asm.Parse_error _ ->
          t.rejected_seeds <- t.rejected_seeds + 1)
    params.seed_programs;
  t

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

type action = Fresh | Mutate of entry

(* Power schedule: energy grows with score, decays with age.  Quadratic in
   the score so the few high-value seeds (violation finders) dominate the
   many novelty-only admissions instead of being crowd-diluted by them;
   every live entry keeps weight >= 1 so no seed is fully starved before
   eviction. *)
let weight e =
  let s = max 1 (1 + (2 * e.score) - e.age) in
  s * s

let has_finder t = List.exists (fun e -> e.score >= violation_bonus) t.entries

(** Decide what the next round tests: a fresh random program, or a mutant
    of a scheduled corpus entry.  Warm-up: until the corpus holds a
    violation finder, most of [mutate_fraction] is withheld in favour of
    fresh exploration — mutating novelty-only seeds explores far more
    slowly than drawing fresh programs, and coverage novelty alone is a
    weak predictor of violations. *)
let next t rng =
  match t.entries with
  | [] -> Fresh
  | es ->
      let p =
        if has_finder t then t.params.mutate_fraction
        else t.params.mutate_fraction /. 4.
      in
      if not (Rng.bool rng ~p) then Fresh
      else begin
        let e = Rng.weighted rng (List.map (fun e -> (weight e, e)) es) in
        e.trials <- e.trials + 1;
        Mutate e
      end

(** Record one run's coverage {!Coverage.feedback}; returns the novel
    feature count. *)
let observe t feedback = Coverage.observe t.coverage feedback

(** Account a tested program: admit it when its run was novel (or found a
    violation), and reward/refresh its parent.  [bonus] is extra energy
    from the static [score] pre-analysis (transmitter count). *)
let record t ?parent ~program ~novel ~violation ~bonus () =
  (match parent with
  | Some p when novel > 0 || violation ->
      p.score <- (p.score + novel + if violation then violation_bonus / 2 else 0);
      p.age <- 0
  | Some _ | None -> ());
  if novel > 0 || violation then
    add_entry t program
      (novel + bonus + if violation then violation_bonus else 0)

(** End-of-round bookkeeping: age every entry and retire the stale. *)
let tick t =
  t.round <- t.round + 1;
  List.iter (fun e -> e.age <- e.age + 1) t.entries;
  let keep, stale =
    List.partition (fun e -> e.age <= t.params.max_age) t.entries
  in
  t.evictions <- t.evictions + List.length stale;
  t.entries <- keep

(* ------------------------------------------------------------------ *)
(* Persistence (journal checkpoints, `amulet corpus`)                  *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (function
      | '\n' -> Buffer.add_string b "\\n"
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char b '\n'
       | c -> Buffer.add_char b c);
       incr i
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let magic = "amulet-corpus 1"

let to_string t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "capacity=%d" t.params.capacity;
  line "max_age=%d" t.params.max_age;
  line "mutate_fraction=%f" t.params.mutate_fraction;
  line "energy=%d" t.params.energy;
  line "round=%d" t.round;
  line "evictions=%d" t.evictions;
  line "rejected_seeds=%d" t.rejected_seeds;
  List.iter (fun s -> line "seed %s" (escape s)) t.params.seed_programs;
  line "coverage-begin";
  List.iter (fun l -> line "%s" l) (Coverage.to_lines t.coverage);
  line "coverage-end";
  List.iter
    (fun e ->
      line "entry score=%d age=%d trials=%d" e.score e.age e.trials;
      line "program %s" (escape e.text))
    t.entries;
  Buffer.contents b

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | m :: rest when String.equal m magic ->
      let params = ref default_params in
      let t =
        {
          params = !params;
          coverage = Coverage.create ();
          entries = [];
          round = 0;
          evictions = 0;
          rejected_seeds = 0;
        }
      in
      let seeds = ref [] in
      let cov_lines = ref [] in
      let in_cov = ref false in
      let pending_entry = ref None in
      let strip_prefix p l =
        if String.length l >= String.length p && String.sub l 0 (String.length p) = p
        then Some (String.sub l (String.length p) (String.length l - String.length p))
        else None
      in
      List.iter
        (fun l ->
          if String.equal l "coverage-begin" then in_cov := true
          else if String.equal l "coverage-end" then in_cov := false
          else if !in_cov then cov_lines := l :: !cov_lines
          else
            match strip_prefix "seed " l with
            | Some s -> seeds := unescape s :: !seeds
            | None -> (
                match strip_prefix "program " l with
                | Some p -> (
                    match !pending_entry with
                    | Some (score, age, trials) ->
                        pending_entry := None;
                        let text = unescape p in
                        let program =
                          try Asm.parse_flat text
                          with Asm.Parse_error { line; message } ->
                            failwith
                              (Printf.sprintf
                                 "Corpus.of_string: entry %d, program line %d: %s"
                                 (List.length t.entries + 1) line message)
                        in
                        t.entries <-
                          t.entries @ [ { program; text; score; age; trials } ]
                    | None -> failwith "Corpus.of_string: orphan program line")
                | None -> (
                    match
                      Scanf.sscanf_opt l "entry score=%d age=%d trials=%d"
                        (fun s a tr -> (s, a, tr))
                    with
                    | Some e -> pending_entry := Some e
                    | None -> (
                        match String.index_opt l '=' with
                        | Some i ->
                            let k = String.sub l 0 i in
                            let v =
                              String.sub l (i + 1) (String.length l - i - 1)
                            in
                            let iv () = int_of_string v in
                            (match k with
                            | "capacity" -> params := { !params with capacity = iv () }
                            | "max_age" -> params := { !params with max_age = iv () }
                            | "mutate_fraction" ->
                                params :=
                                  { !params with mutate_fraction = float_of_string v }
                            | "energy" -> params := { !params with energy = iv () }
                            | "round" -> t.round <- iv ()
                            | "evictions" -> t.evictions <- iv ()
                            | "rejected_seeds" -> t.rejected_seeds <- iv ()
                            | _ -> ())
                        | None ->
                            if String.length (String.trim l) > 0 then
                              failwith
                                (Printf.sprintf "Corpus.of_string: bad line %S" l)))))
        (List.filter (fun l -> String.length l > 0) rest);
      let cov = Coverage.of_lines (List.rev !cov_lines) in
      {
        t with
        params = { !params with seed_programs = List.rev !seeds };
        coverage = cov;
      }
  | _ -> failwith "Corpus.of_string: bad magic"

let pp fmt t =
  Format.fprintf fmt "corpus: %d seeds, %a, round %d, %d evictions" (size t)
    (fun fmt c -> Coverage.pp fmt c)
    t.coverage t.round t.evictions
