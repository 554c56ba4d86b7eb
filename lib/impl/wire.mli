open Gcs_core

(** Wire packets of the Section 8 VS implementation: the three-round
    membership protocol of Cristian and Schmuck, plus the ordering token
    and discovery probes. *)

type 'm token_entry = { idx : int; src : Proc.t; msg : 'm }

type 'm token = {
  viewid : View_id.t;
  entries : 'm token_entry list;  (** ascending [idx]; safe prefix pruned *)
  next_idx : int;  (** next index to assign *)
  delivered : int Proc.Map.t;
      (** per member: entries passed to the client when the token last left
          that member *)
  safe_acked : int Proc.Map.t;
      (** per member: safe notifications already issued — gates pruning *)
  appended : int Proc.Map.t;
      (** per member: how many of its client messages have been appended
          in this view (resend suppression) *)
}

type 'm packet =
  | Newgroup of { viewid : View_id.t }
      (** round 1: call for participation (broadcast) *)
  | Accept of { viewid : View_id.t }  (** round 2: reply to the initiator *)
  | Nack of { viewid : View_id.t; proposed_num : int }
      (** refusal carrying the refuser's highest proposal number, so the
          initiator can catch up its identifier counter *)
  | ViewMsg of { view : View.t }  (** round 3: membership announcement *)
  | Token of 'm token
  | Probe of { viewid_num : int }
      (** discovery contact; carries the prober's id counter *)
  | Want of { viewid : View_id.t }
      (** a member of view [viewid] holds client messages no token has
          collected yet and asks the leader to launch the resting token *)

val fresh_token : View_id.t -> 'm token
val pp_packet : Format.formatter -> 'm packet -> unit

(** {2 Framing primitives}

    The writer/reader pair under every codec in this module, exported so
    sibling wire formats (the Skeen and sequencer backends) share one
    format and one totality argument instead of inventing a second. *)

module Writer : sig
  type t
  (** An append-only frame buffer. *)

  val tag : t -> char -> unit
  (** A one-byte constructor tag. *)

  val int : t -> int -> unit
  (** A zigzag LEB128 varint. *)

  val string : t -> string -> unit
  (** A length-prefixed byte string. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** A count-prefixed list, each element written by [f]. *)
end

module Reader : sig
  type t
  (** A cursor over one frame. Every reader advances it past what it
      read, or aborts the decode with a message; only {!codec} creates a
      cursor and turns that abort into [Error]. *)

  val tag : t -> char
  val int : t -> int

  val string : t -> string
  (** Rejects a negative length, or one past the bytes left. *)

  val list : t -> (t -> 'a) -> 'a list
  (** Rejects a negative count, or one past the bytes left (every
      element takes at least one byte). *)

  val fail : t -> ('a, unit, string, 'b) format4 -> 'a
  (** Abort the decode, e.g. on an unknown tag. *)
end

val codec :
  (Writer.t -> 'p -> unit) -> (Reader.t -> 'p) -> 'p Gcs_transport.Iface.codec
(** [codec write read]: encoding runs [write] over a fresh buffer;
    decoding runs [read] over the whole frame and returns [Error] when it
    aborts or leaves trailing bytes. This is the one codec boundary: no
    exception from the readers escapes it. *)

(** {2 Byte codec}

    Serialization for real transports ({!Gcs_transport.Bus} and, later,
    sockets). The simulator moves packets by value and never touches
    this path.

    A frame is one flat byte string, written in a single pass: a one-byte
    constructor tag, then the constructor's fields in declaration order.
    An int is a zigzag LEB128 varint (sign folded into bit 0, 7 bits per
    byte, low group first, at most 9 bytes, no redundant zero byte); a
    string is its length as a varint, then its raw bytes, unescaped; a
    list or map is its count as a varint, then its elements. Nested
    records are just their fields, so a payload byte costs one byte at
    any depth and is copied once each way.

    Decoding is total: a malformed frame — unknown tag, truncation, a
    length or count past the bytes left, an overlong varint, trailing
    bytes — yields [Error], never an exception or a guessed packet, and
    nothing is allocated for a length before it is checked against the
    frame. *)

val packet_codec :
  write_msg:(Writer.t -> 'm -> unit) ->
  read_msg:(Reader.t -> 'm) ->
  'm packet Gcs_transport.Iface.codec
(** Codec for packets over any payload type, given the payload's writer
    and reader. *)

val msg_packet_codec : Msg.t packet Gcs_transport.Iface.codec
(** The full VStoTO wire format: packets carrying labelled application
    values and state-exchange summaries ({!Gcs_core.Msg.t}). *)

val string_packet_codec : string packet Gcs_transport.Iface.codec
(** Packets over raw string payloads (tests and simple clients). *)
