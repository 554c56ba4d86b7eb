open Gcs_core

type 'm token_entry = { idx : int; src : Proc.t; msg : 'm }

type 'm token = {
  viewid : View_id.t;
  entries : 'm token_entry list;
  next_idx : int;
  delivered : int Proc.Map.t;
  safe_acked : int Proc.Map.t;
  appended : int Proc.Map.t;
}

type 'm packet =
  | Newgroup of { viewid : View_id.t }
  | Accept of { viewid : View_id.t }
  | Nack of { viewid : View_id.t; proposed_num : int }
  | ViewMsg of { view : View.t }
  | Token of 'm token
  | Probe of { viewid_num : int }
  | Want of { viewid : View_id.t }

let fresh_token viewid =
  {
    viewid;
    entries = [];
    next_idx = 1;
    delivered = Proc.Map.empty;
    safe_acked = Proc.Map.empty;
    appended = Proc.Map.empty;
  }

(* ---- Byte codec -------------------------------------------------------

   One pass over one buffer. A frame is a sequence of items: a one-byte
   constructor tag, an int as a zigzag LEB128 varint, a string as its
   length then its bytes, a list as its count then its elements. Nesting
   costs nothing: a payload byte is copied once on encode and once on
   decode, whatever its depth, and a nested record adds no separators. *)

module Writer = struct
  type t = Buffer.t

  let tag = Buffer.add_char

  (* Zigzag folds the sign into bit 0, so small negatives stay short;
     LEB128 then emits 7 bits per byte, low group first, high bit set on
     every byte but the last. A 63-bit int takes at most 9 bytes. *)
  let int w n =
    let rec go z =
      if z land lnot 0x7f = 0 then Buffer.add_char w (Char.chr z)
      else (
        Buffer.add_char w (Char.chr (z land 0x7f lor 0x80));
        go (z lsr 7))
    in
    go ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let string w s = int w (String.length s); Buffer.add_string w s
  let list w f xs = int w (List.length xs); List.iter (f w) xs
end

module Reader = struct
  type t = { frame : string; mutable pos : int }

  (* Raised by the readers below and caught only by [codec], the one
     place a [Reader.t] is created, so it never escapes a decoder. *)
  exception Malformed of string

  let fail r fmt =
    Printf.ksprintf
      (fun m -> raise (Malformed (Printf.sprintf "%s (at byte %d)" m r.pos)))
      fmt

  let remaining r = String.length r.frame - r.pos

  let tag r =
    if r.pos >= String.length r.frame then fail r "frame ends early"
    else begin
      let c = r.frame.[r.pos] in
      r.pos <- r.pos + 1;
      c
    end

  (* Canonical encodings only: a zero final byte after the first is an
     overlong varint, and a tenth byte cannot exist. *)
  let int r =
    let rec go acc shift =
      let b = Char.code (tag r) in
      if b = 0 && shift > 0 then fail r "overlong varint"
      else
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then acc
        else if shift >= 56 then fail r "varint longer than 9 bytes"
        else go acc (shift + 7)
    in
    let z = go 0 0 in
    (z lsr 1) lxor -(z land 1)

  (* Checked against the bytes left before anything is allocated: a
     string byte or a list element takes at least one frame byte. *)
  let length r what =
    let n = int r in
    if n < 0 then fail r "negative %s %d" what n
    else if n > remaining r then
      fail r "%s %d exceeds the %d bytes left" what n (remaining r)
    else n

  let string r =
    let n = length r "string length" in
    let s = String.sub r.frame r.pos n in
    r.pos <- r.pos + n;
    s

  let list r f =
    let rec go acc k = if k = 0 then List.rev acc else go (f r :: acc) (k - 1) in
    go [] (length r "list count")
end

let codec write read : _ Gcs_transport.Iface.codec =
  let enc p =
    let w = Buffer.create 64 in
    write w p;
    Buffer.contents w
  in
  let dec frame =
    let r = { Reader.frame; pos = 0 } in
    match read r with
    | p when Reader.remaining r = 0 -> Ok p
    | _ -> Error (Printf.sprintf "%d trailing bytes" (Reader.remaining r))
    | exception Reader.Malformed e -> Error e
  in
  { enc; dec }

module W = Writer
module R = Reader

let write_viewid w (v : View_id.t) = W.int w v.num; W.int w v.origin

let read_viewid r =
  let num = R.int r in
  View_id.make ~num ~origin:(R.int r)

let write_label w (l : Label.t) =
  write_viewid w l.id; W.int w l.seqno; W.int w l.origin

let read_label r =
  let id = read_viewid r in
  let seqno = R.int r in
  Label.make ~id ~seqno ~origin:(R.int r)

let write_entry w (l, v) = write_label w l; W.string w v

let read_entry r =
  let l = read_label r in
  (l, R.string r)

let write_summary w (x : Summary.t) =
  W.list w write_entry (Label.Map.bindings x.con);
  W.list w write_label x.ord;
  W.int w x.next;
  match x.high with
  | None -> W.tag w 'n'
  | Some v -> W.tag w 's'; write_viewid w v

let read_summary r =
  let con = R.list r read_entry in
  let ord = R.list r read_label in
  let next = R.int r in
  let high =
    match R.tag r with
    | 'n' -> None
    | 's' -> Some (read_viewid r)
    | c -> R.fail r "summary.high: unknown tag %C" c
  in
  let con = List.fold_left (fun m (l, v) -> Label.Map.add l v m) Label.Map.empty con in
  Summary.make ~con ~ord ~next ~high

let write_msg w = function
  | Msg.App (l, v) -> W.tag w 'a'; write_entry w (l, v)
  | Msg.Batch entries -> W.tag w 'b'; W.list w write_entry entries
  | Msg.Summary x -> W.tag w 's'; write_summary w x

let read_msg r =
  match R.tag r with
  | 'a' -> let l, v = read_entry r in Msg.App (l, v)
  | 'b' -> Msg.Batch (R.list r read_entry)
  | 's' -> Msg.Summary (read_summary r)
  | c -> R.fail r "msg: unknown tag %C" c

let write_counts w m =
  W.list w (fun w (p, c) -> W.int w p; W.int w c) (Proc.Map.bindings m)

let read_counts r =
  let read_pair r = let p = R.int r in (p, R.int r) in
  List.fold_left (fun m (p, c) -> Proc.Map.add p c m) Proc.Map.empty (R.list r read_pair)

let write_token write_m w (t : 'm token) =
  write_viewid w t.viewid;
  W.list w (fun w e -> W.int w e.idx; W.int w e.src; write_m w e.msg) t.entries;
  W.int w t.next_idx;
  List.iter (write_counts w) [ t.delivered; t.safe_acked; t.appended ]

let read_token read_m r =
  let viewid = read_viewid r in
  let read_entry r =
    let idx = R.int r in
    let src = R.int r in
    { idx; src; msg = read_m r }
  in
  let entries = R.list r read_entry in
  let next_idx = R.int r in
  let delivered = read_counts r in
  let safe_acked = read_counts r in
  let appended = read_counts r in
  { viewid; entries; next_idx; delivered; safe_acked; appended }

let write_packet write_m w = function
  | Newgroup { viewid } -> W.tag w 'g'; write_viewid w viewid
  | Accept { viewid } -> W.tag w 'a'; write_viewid w viewid
  | Nack { viewid; proposed_num } ->
      W.tag w 'k'; write_viewid w viewid; W.int w proposed_num
  | ViewMsg { view } ->
      W.tag w 'v'; write_viewid w view.id; W.list w W.int (Proc.Set.elements view.set)
  | Token t -> W.tag w 't'; write_token write_m w t
  | Probe { viewid_num } -> W.tag w 'p'; W.int w viewid_num
  | Want { viewid } -> W.tag w 'w'; write_viewid w viewid

let read_packet read_m r =
  match R.tag r with
  | 'g' -> Newgroup { viewid = read_viewid r }
  | 'a' -> Accept { viewid = read_viewid r }
  | 'k' ->
      let viewid = read_viewid r in
      Nack { viewid; proposed_num = R.int r }
  | 'v' ->
      let id = read_viewid r in
      ViewMsg { view = View.make id (R.list r R.int) }
  | 't' -> Token (read_token read_m r)
  | 'p' -> Probe { viewid_num = R.int r }
  | 'w' -> Want { viewid = read_viewid r }
  | c -> R.fail r "packet: unknown tag %C" c

let packet_codec ~write_msg ~read_msg =
  codec (write_packet write_msg) (read_packet read_msg)

let msg_packet_codec : Msg.t packet Gcs_transport.Iface.codec =
  packet_codec ~write_msg ~read_msg

let string_packet_codec : string packet Gcs_transport.Iface.codec =
  packet_codec ~write_msg:W.string ~read_msg:R.string

let pp_packet ppf = function
  | Newgroup { viewid } -> Format.fprintf ppf "newgroup(%a)" View_id.pp viewid
  | Accept { viewid } -> Format.fprintf ppf "accept(%a)" View_id.pp viewid
  | Nack { viewid; proposed_num } ->
      Format.fprintf ppf "nack(%a,%d)" View_id.pp viewid proposed_num
  | ViewMsg { view } -> Format.fprintf ppf "viewmsg(%a)" View.pp view
  | Token t ->
      Format.fprintf ppf "token(%a,#%d,|%d|)" View_id.pp t.viewid t.next_idx
        (List.length t.entries)
  | Probe { viewid_num } -> Format.fprintf ppf "probe(%d)" viewid_num
  | Want { viewid } -> Format.fprintf ppf "want(%a)" View_id.pp viewid
