(** Minimal dependency-free JSON parser.

    Consumes the JSON the harnesses emit ({!Metrics.to_json}, the nemesis
    outcome JSON, [bench --json] files), for the bench drift check and
    for round-trip tests of the emitters' escaping. Numbers parse to
    [float]; [\u]-escaped code points decode to UTF-8. Not a validator:
    it accepts exactly standard JSON but reports errors by position only. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parse one complete JSON value (trailing whitespace allowed). *)

val encode : t -> string
(** Render as compact (single-line) JSON. [of_string (encode v)] is
    [Ok v] up to float formatting, except that a non-finite [Num] (NaN,
    an infinity) renders as [null], so the output is always valid JSON;
    strings escape per RFC 8259. *)

val int : int -> t
(** [Num] of an integer. *)

(** {2 Accessors} — [None] on kind mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_string : t -> string option
val to_list : t -> t list option
