(** A minimal JSON tree: printer and parser.

    The observability exporters (Chrome trace-event files, campaign
    JSONL) need structured, machine-readable output, and their test
    suite needs to parse that output back — but the container offers no
    JSON library and the dependency budget is fixed.  This module is the
    smallest closed loop: a value type, a compact printer, and a strict
    recursive-descent parser, with the round-trip property
    [of_string (to_string v) = Ok v] for every value the printer can
    emit (property-tested in [test/test_telemetry.ml]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace).  Strings are
    escaped per RFC 8259; floats always carry a ['.'] or exponent so
    they re-parse as [Float], and non-finite floats render as [null]. *)

val pp : Format.formatter -> t -> unit
(** Same rendering as {!to_string}. *)

val of_string : string -> (t, string) result
(** Strict parse of one JSON value (surrounding whitespace allowed;
    trailing garbage is an error).  Numbers with a fraction or exponent
    parse as [Float], others as [Int].  [\u] escapes are decoded to
    UTF-8, including surrogate pairs. *)

val member : string -> t -> t option
(** Field lookup in an [Assoc]; [None] elsewhere. *)

val fields : t -> (string * t) list
(** An [Assoc]'s members in order; [[]] elsewhere. *)

val to_bool : t -> bool option
(** The payload of a [Bool]; [None] otherwise. *)

val to_int : t -> int option
(** The integer value of an [Int]; [None] otherwise. *)

val to_float : t -> float option
(** The numeric value of a [Float] or [Int]; [None] otherwise. *)

val to_str : t -> string option
(** The payload of a [String]; [None] otherwise. *)

val to_list : t -> t list option
(** The elements of a [List]; [None] otherwise. *)
