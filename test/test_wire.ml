(* Wire codec round-trip tests.

   Every packet constructor of the Section 8 protocol must survive
   encode/decode byte-for-byte over arbitrary payload bytes — including
   the framing characters '|' and '%', empty strings, empty views, empty
   token maps and pathologically long values — and decoding arbitrary,
   truncated, flipped or hand-built hostile bytes must return [Error],
   never raise. *)

open Gcs_core
module Wire = Gcs_impl.Wire

let enc p = Wire.msg_packet_codec.Gcs_transport.Iface.enc p
let dec s = Wire.msg_packet_codec.Gcs_transport.Iface.dec s

(* ----------------------------- equality ----------------------------- *)

let equal_entry eq_msg (a : 'm Wire.token_entry) (b : 'm Wire.token_entry) =
  a.Wire.idx = b.Wire.idx && a.Wire.src = b.Wire.src && eq_msg a.Wire.msg b.Wire.msg

let equal_token eq_msg (a : 'm Wire.token) (b : 'm Wire.token) =
  View_id.equal a.Wire.viewid b.Wire.viewid
  && List.equal (equal_entry eq_msg) a.Wire.entries b.Wire.entries
  && a.Wire.next_idx = b.Wire.next_idx
  && Proc.Map.equal Int.equal a.Wire.delivered b.Wire.delivered
  && Proc.Map.equal Int.equal a.Wire.safe_acked b.Wire.safe_acked
  && Proc.Map.equal Int.equal a.Wire.appended b.Wire.appended

let equal_packet eq_msg (a : 'm Wire.packet) (b : 'm Wire.packet) =
  match (a, b) with
  | Wire.Newgroup a, Wire.Newgroup b -> View_id.equal a.viewid b.viewid
  | Wire.Accept a, Wire.Accept b -> View_id.equal a.viewid b.viewid
  | Wire.Nack a, Wire.Nack b ->
      View_id.equal a.viewid b.viewid && a.proposed_num = b.proposed_num
  | Wire.ViewMsg a, Wire.ViewMsg b -> View.equal a.view b.view
  | Wire.Token a, Wire.Token b -> equal_token eq_msg a b
  | Wire.Probe a, Wire.Probe b -> a.viewid_num = b.viewid_num
  | Wire.Want a, Wire.Want b -> View_id.equal a.viewid b.viewid
  | _ -> false

(* ---------------------------- generators ---------------------------- *)

open QCheck

let gen_proc = Gen.int_range 0 5
let gen_viewid =
  Gen.map2 (fun num origin -> View_id.make ~num ~origin) (Gen.int_range 0 999) gen_proc

let gen_label =
  Gen.map3
    (fun id seqno origin -> Label.make ~id ~seqno ~origin)
    gen_viewid (Gen.int_range 1 99) gen_proc

(* Full byte range: the framing characters must be as likely as any. *)
let gen_value = Gen.(string_size ~gen:char (int_range 0 30))

let gen_summary =
  let open Gen in
  let* bindings = list_size (int_range 0 4) (pair gen_label gen_value) in
  let* ord = list_size (int_range 0 5) gen_label in
  let* next = int_range 1 50 in
  let* high = opt gen_viewid in
  let con =
    List.fold_left (fun m (l, v) -> Label.Map.add l v m) Label.Map.empty bindings
  in
  return (Summary.make ~con ~ord ~next ~high)

let gen_msg =
  Gen.oneof
    [
      Gen.map2 (fun l v -> Msg.App (l, v)) gen_label gen_value;
      Gen.map
        (fun entries -> Msg.Batch entries)
        Gen.(list_size (int_range 0 6) (pair gen_label gen_value));
      Gen.map (fun s -> Msg.Summary s) gen_summary;
    ]

let gen_proc_counts =
  Gen.map
    (List.fold_left (fun m (p, k) -> Proc.Map.add p k m) Proc.Map.empty)
    Gen.(list_size (int_range 0 4) (pair gen_proc (int_range 0 100)))

let gen_token =
  let open Gen in
  let* viewid = gen_viewid in
  let* base = int_range 0 20 in
  let* payloads = list_size (int_range 0 5) (pair gen_proc gen_msg) in
  let* delivered = gen_proc_counts in
  let* safe_acked = gen_proc_counts in
  let* appended = gen_proc_counts in
  let entries =
    List.mapi (fun i (src, msg) -> { Wire.idx = base + i; src; msg }) payloads
  in
  return
    {
      Wire.viewid;
      entries;
      next_idx = base + List.length entries;
      delivered;
      safe_acked;
      appended;
    }

let gen_view =
  Gen.map2
    (fun id members -> View.make id (List.sort_uniq Int.compare members))
    gen_viewid
    Gen.(list_size (int_range 0 5) gen_proc)

let gen_packet =
  Gen.oneof
    [
      Gen.map (fun viewid -> Wire.Newgroup { viewid }) gen_viewid;
      Gen.map (fun viewid -> Wire.Accept { viewid }) gen_viewid;
      Gen.map2
        (fun viewid proposed_num -> Wire.Nack { viewid; proposed_num })
        gen_viewid (Gen.int_range 0 999);
      Gen.map (fun view -> Wire.ViewMsg { view }) gen_view;
      Gen.map (fun t -> Wire.Token t) gen_token;
      Gen.map (fun viewid_num -> Wire.Probe { viewid_num }) (Gen.int_range 0 999);
      Gen.map (fun viewid -> Wire.Want { viewid }) gen_viewid;
    ]

let arb_packet =
  make ~print:(fun p -> Format.asprintf "%a" Wire.pp_packet p) gen_packet

(* ---------------------------- properties ---------------------------- *)

let prop_roundtrip =
  Test.make ~name:"msg packet enc/dec roundtrip" ~count:1000 arb_packet (fun p ->
      match dec (enc p) with
      | Ok p' -> equal_packet Msg.equal p p'
      | Error e -> Test.fail_reportf "decode failed: %s" e)

let prop_string_roundtrip =
  let arb =
    make
      ~print:(fun v -> String.escaped v)
      Gen.(string_size ~gen:char (int_range 0 200))
  in
  Test.make ~name:"string payload roundtrip (arbitrary bytes)" ~count:500 arb
    (fun v ->
      let p = Wire.Token { (Wire.fresh_token View_id.g0) with
                           Wire.entries = [ { Wire.idx = 0; src = 1; msg = v } ];
                           next_idx = 1 } in
      let c = Wire.string_packet_codec in
      match c.Gcs_transport.Iface.dec (c.Gcs_transport.Iface.enc p) with
      | Ok p' -> equal_packet String.equal p p'
      | Error e -> Test.fail_reportf "decode failed: %s" e)

let prop_garbage_total =
  let arb = make ~print:String.escaped Gen.(string_size ~gen:char (int_range 0 60)) in
  Test.make ~name:"decode is total on arbitrary bytes" ~count:1000 arb (fun s ->
      match dec s with Ok _ | Error _ -> true)

let prop_truncation_total =
  Test.make ~name:"decode is total on truncated encodings" ~count:500
    (pair arb_packet (float_bound_inclusive 1.0)) (fun (p, frac) ->
      let s = enc p in
      let cut = int_of_float (frac *. float_of_int (String.length s)) in
      let s = String.sub s 0 (min cut (String.length s)) in
      match dec s with Ok _ | Error _ -> true)

(* ---------------------------- unit cases ---------------------------- *)

let check_roundtrip name p =
  match dec (enc p) with
  | Ok p' ->
      if not (equal_packet Msg.equal p p') then
        Alcotest.failf "%s: decoded to a different packet" name
  | Error e -> Alcotest.failf "%s: decode failed: %s" name e

let vid = View_id.make ~num:3 ~origin:1

let test_constructors () =
  check_roundtrip "newgroup" (Wire.Newgroup { viewid = vid });
  check_roundtrip "accept" (Wire.Accept { viewid = vid });
  check_roundtrip "nack" (Wire.Nack { viewid = vid; proposed_num = 7 });
  check_roundtrip "viewmsg" (Wire.ViewMsg { view = View.make vid [ 0; 1; 2 ] });
  check_roundtrip "token" (Wire.Token (Wire.fresh_token vid));
  check_roundtrip "probe" (Wire.Probe { viewid_num = 12 });
  check_roundtrip "want" (Wire.Want { viewid = vid })

let test_empty_view () =
  check_roundtrip "empty membership" (Wire.ViewMsg { view = View.make vid [] })

let test_max_length_payload () =
  (* Every byte value, cycled, at a length no real client reaches. *)
  let big = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let label = Label.make ~id:vid ~seqno:1 ~origin:0 in
  check_roundtrip "64 KiB payload"
    (Wire.Token
       {
         (Wire.fresh_token vid) with
         Wire.entries = [ { Wire.idx = 0; src = 0; msg = Msg.App (label, big) } ];
         next_idx = 1;
       })

let test_framing_payload () =
  let label = Label.make ~id:vid ~seqno:1 ~origin:0 in
  List.iter
    (fun v -> check_roundtrip ("framing payload " ^ String.escaped v)
        (Wire.Token
           {
             (Wire.fresh_token vid) with
             Wire.entries = [ { Wire.idx = 0; src = 0; msg = Msg.App (label, v) } ];
             next_idx = 1;
           }))
    [ ""; "|"; "%"; "%n"; "||%%||"; String.make 1000 '|'; String.make 1000 '%' ]

(* The batched frame from the throughput path: one token entry carrying a
   whole [Msg.Batch], exercised at the same extremes as single [App]s. *)
let batch_packet entries =
  Wire.Token
    {
      (Wire.fresh_token vid) with
      Wire.entries = [ { Wire.idx = 0; src = 0; msg = Msg.Batch entries } ];
      next_idx = 1;
    }

let test_batch_roundtrip () =
  let label i = Label.make ~id:vid ~seqno:i ~origin:0 in
  check_roundtrip "empty batch" (batch_packet []);
  check_roundtrip "singleton batch" (batch_packet [ (label 1, "x") ]);
  check_roundtrip "multi-entry batch"
    (batch_packet [ (label 1, "x"); (label 2, ""); (label 3, "y|z%") ]);
  let big = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  check_roundtrip "64 KiB batched payload"
    (batch_packet [ (label 1, big); (label 2, "small") ]);
  List.iter
    (fun v ->
      check_roundtrip
        ("batch framing payload " ^ String.escaped v)
        (batch_packet [ (label 1, v); (label 2, v ^ v) ]))
    [ ""; "|"; "%"; "%n"; "||%%||"; String.make 1000 '|'; String.make 1000 '%' ]

let test_batch_truncation_total () =
  let label i = Label.make ~id:vid ~seqno:i ~origin:0 in
  let s =
    enc (batch_packet [ (label 1, "abc|def%ghi"); (label 2, String.make 200 '%') ])
  in
  for cut = 0 to String.length s do
    match dec (String.sub s 0 cut) with
    | Ok _ | Error _ -> ()
  done;
  (* Whole-frame decode still succeeds after surviving every prefix. *)
  match dec s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "full batch frame failed to decode: %s" e

let test_garbage_rejected () =
  List.iter
    (fun s ->
      match dec s with
      | Error _ -> ()
      | Ok p ->
          Alcotest.failf "garbage %S decoded to %s" s
            (Format.asprintf "%a" Wire.pp_packet p))
    [ ""; "zz"; "tk"; "ng"; "ng|x"; "tk|1|0|notanint"; "vm|1|0"; "%n%n" ]

(* ------------------------- hostile frames --------------------------- *)

(* The format spelled out independently of [Wire.Writer]: a zigzag
   LEB128 varint. Hand-built frames below use it. *)
let zz n =
  let buf = Buffer.create 10 in
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr z)
    else (
      Buffer.add_char buf (Char.chr (z land 0x7f lor 0x80));
      go (z lsr 7))
  in
  go ((n lsl 1) lxor (n asr (Sys.int_size - 1)));
  Buffer.contents buf

let test_format_pinned () =
  Alcotest.(check string) "probe" ("p" ^ zz 3) (enc (Wire.Probe { viewid_num = 3 }));
  Alcotest.(check string) "negative probe" ("p" ^ zz (-3))
    (enc (Wire.Probe { viewid_num = -3 }));
  List.iter
    (fun n ->
      match dec ("p" ^ zz n) with
      | Ok (Wire.Probe { viewid_num }) ->
          Alcotest.(check int) (Printf.sprintf "varint %d" n) n viewid_num
      | Ok _ | Error _ -> Alcotest.failf "varint %d did not decode" n)
    [ 0; 1; -1; 63; 64; -64; -65; 1 lsl 40; max_int; min_int ]

(* A token frame cut just before its single [App] entry's value string. *)
let app_prefix =
  String.concat ""
    [ "t"; zz 3; zz 1; zz 1; zz 0; zz 0; "a"; zz 3; zz 1; zz 1; zz 0 ]

(* [dec s] must be [Error], and must not allocate more than a small
   multiple of the frame, whatever its prefixes claim. *)
let check_hostile name s =
  let before = Gc.minor_words () in
  let result = dec s in
  let words = Gc.minor_words () -. before in
  (match result with
  | Error _ -> ()
  | Ok p ->
      Alcotest.failf "%s: decoded to %s" name (Format.asprintf "%a" Wire.pp_packet p));
  if words > float_of_int (1024 + (8 * String.length s)) then
    Alcotest.failf "%s: allocated %.0f words on a %d-byte frame" name words
      (String.length s)

let test_hostile_frames () =
  (* next_idx, then empty delivered/safe_acked/appended maps *)
  let tail = zz 2 ^ zz 0 ^ zz 0 ^ zz 0 in
  (match dec (app_prefix ^ zz 3 ^ "abc" ^ tail) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hand-built frame failed to decode: %s" e);
  check_hostile "length past the end" (app_prefix ^ zz 10 ^ "abc");
  check_hostile "length past the end, huge" (app_prefix ^ zz max_int ^ "abc");
  check_hostile "count of 2^60" ("t" ^ zz 3 ^ zz 1 ^ zz (1 lsl 60) ^ "xyz");
  check_hostile "batch count of 2^60"
    ("t" ^ zz 3 ^ zz 1 ^ zz 1 ^ zz 0 ^ zz 0 ^ "b" ^ zz (1 lsl 60));
  check_hostile "11-byte varint" ("p" ^ String.make 10 '\x80' ^ "\x01");
  check_hostile "10-byte varint" ("p" ^ String.make 9 '\xff' ^ "\x01");
  check_hostile "overlong zero" ("p" ^ "\x80\x00");
  check_hostile "negative zigzag length" (app_prefix ^ zz (-5) ^ "abcde");
  check_hostile "negative zigzag count" ("t" ^ zz 3 ^ zz 1 ^ zz (-1));
  check_hostile "one trailing byte" (enc (Wire.Probe { viewid_num = 3 }) ^ "x");
  check_hostile "unknown tag" ("?" ^ zz 3)

(* A [Want] is its tag and the view id, nothing else: every proper
   prefix is a truncation, and anything after the id is trailing. *)
let test_want_pinned () =
  let frame = "w" ^ zz 3 ^ zz 1 in
  Alcotest.(check string) "want" frame (enc (Wire.Want { viewid = vid }));
  Alcotest.(check string) "want, large id" ("w" ^ zz 300 ^ zz 4)
    (enc (Wire.Want { viewid = View_id.make ~num:300 ~origin:4 }));
  for cut = 0 to String.length frame - 1 do
    check_hostile
      (Printf.sprintf "want cut at %d" cut)
      (String.sub frame 0 cut)
  done;
  check_hostile "want without its origin" ("w" ^ zz 3);
  check_hostile "want with a trailing byte" (frame ^ "x");
  check_hostile "want with a 10-byte varint" ("w" ^ String.make 9 '\xff' ^ "\x01")

(* The burst workload's token: one entry carrying a 2,500-value batch. *)
let big_batch_frame =
  lazy
    (enc
       (batch_packet
          (List.init 2500 (fun i ->
               (Label.make ~id:vid ~seqno:(i + 1) ~origin:0, Printf.sprintf "v%d" i)))))

let test_big_batch_truncations () =
  let s = Lazy.force big_batch_frame in
  for cut = 0 to String.length s - 1 do
    match dec (String.sub s 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d/%d bytes decoded" cut (String.length s)
  done

let test_big_batch_flips () =
  let s = Lazy.force big_batch_frame in
  let b = Bytes.of_string s in
  for i = 0 to Bytes.length b - 1 do
    let c = Bytes.get b i in
    Bytes.set b i (Char.chr (Char.code c lxor 0xff));
    (match dec (Bytes.to_string b) with Ok _ | Error _ -> ());
    Bytes.set b i c
  done

(* Every value byte costs one frame byte and each entry a bounded header,
   even for values made only of '|' and '%'. A framing that escaped them
   once per nesting level (a batched value sits seven levels deep) would
   blow far past this bound. *)
let test_frame_size_pin () =
  let k = 200 in
  let values =
    List.init k (fun i ->
        String.init (1 + (i mod 40)) (fun j -> if (i + j) mod 2 = 0 then '|' else '%'))
  in
  let entries =
    List.mapi (fun i v -> (Label.make ~id:vid ~seqno:(i + 1) ~origin:0, v)) values
  in
  let size = String.length (enc (batch_packet entries)) in
  let payload = List.fold_left (fun acc v -> acc + String.length v) 0 values in
  let c = 16 in
  if size > payload + (c * k) then
    Alcotest.failf "%d values of %d payload bytes framed in %d bytes (> %d)" k
      payload size (payload + (c * k))

let () =
  Alcotest.run "wire codec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "all constructors" `Quick test_constructors;
          Alcotest.test_case "empty view" `Quick test_empty_view;
          Alcotest.test_case "max-length payload" `Quick test_max_length_payload;
          Alcotest.test_case "framing characters as payload" `Quick
            test_framing_payload;
          Alcotest.test_case "batched frame" `Quick test_batch_roundtrip;
          Alcotest.test_case "batched frame truncation is total" `Quick
            test_batch_truncation_total;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
        ] );
      ( "format",
        [
          Alcotest.test_case "varints pinned" `Quick test_format_pinned;
          Alcotest.test_case "hostile frames rejected" `Quick test_hostile_frames;
          Alcotest.test_case "want pinned, truncations rejected" `Quick
            test_want_pinned;
          Alcotest.test_case "2,500-value token: every truncation" `Quick
            test_big_batch_truncations;
          Alcotest.test_case "2,500-value token: every byte flip" `Quick
            test_big_batch_flips;
          Alcotest.test_case "frame size is payload plus a header per value"
            `Quick test_frame_size_pin;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_string_roundtrip;
            prop_garbage_total;
            prop_truncation_total;
          ] );
    ]
