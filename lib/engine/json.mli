(** The repository's one JSON module.  Every writer (serve and fleet
    reports, the metrics registry, Chrome traces, bench [--json] rows)
    escapes its strings here, and the tests and [bench diff] read JSON
    back with {!parse}.  No JSON package is a dependency. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list  (** fields in document order *)

val escape : string -> string
(** The body of a JSON string literal, without the quotes.  The double
    quote, backslash, newline, carriage return and tab get two-character
    escapes, every other byte below 0x20 a [\u00XX] escape; all other
    bytes pass through. *)

val str : string -> string
(** A quoted, escaped JSON string. *)

val obj : (string * string) list -> string
(** One object from keys (escaped here) and already-rendered values, in
    the given order. *)

val arr : string list -> string
(** One array of already-rendered values. *)

val parse : string -> (t, string) result
(** Parse one complete document (surrounding whitespace allowed).  Raw
    control characters in strings, unknown escapes, [\u] surrogates,
    malformed numbers (a lone [-], a leading zero), truncated input and
    trailing bytes are errors naming the byte offset. *)

val member : string -> t -> t option
(** The first field named [k] of an object; [None] otherwise. *)
