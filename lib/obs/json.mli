(** The one JSON writer of the stack (no external dependency).

    Every machine-readable document — CLI [--json] output, Obs snapshots,
    the sweep, serve and triage reports and the bench files — is built as
    a {!t} tree and rendered by {!to_string}: compact (no whitespace),
    object keys in the order given. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** integral values below 1e15 print as [%.1f] ([3.] is [3.0]);
          everything else as [%.9g] *)
  | Str of string
      (** escaped: quote, backslash, [\n], [\r], [\t] by name, other
          control bytes as [\u00XX]; bytes >= 0x20 pass through *)
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val option : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)
