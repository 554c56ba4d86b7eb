let buf_add = Buffer.add_string

let view_id (g : View_id.t) = Printf.sprintf "%d.%d" g.View_id.num g.View_id.origin

let view_id_opt = function None -> "_" | Some g -> view_id g

let label (l : Label.t) =
  Printf.sprintf "%s:%d:%d" (view_id l.Label.id) l.Label.seqno l.Label.origin

let labels ls = String.concat "," (List.map label ls)

let proc_set s =
  String.concat "," (List.map string_of_int (Proc.Set.elements s))

let summary (x : Summary.t) =
  let con =
    String.concat ","
      (List.map
         (fun (l, v) -> label l ^ "=" ^ v)
         (Label.Map.bindings x.Summary.con))
  in
  Printf.sprintf "{%s|%s|%d|%s}" con (labels x.Summary.ord) x.Summary.next
    (view_id_opt x.Summary.high)

let msg = function
  | Msg.App (l, v) -> Printf.sprintf "a(%s=%s)" (label l) v
  | Msg.Batch entries ->
      Printf.sprintf "b(%s)"
        (String.concat ","
           (List.map (fun (l, v) -> label l ^ "=" ^ v) entries))
  | Msg.Summary x -> "s" ^ summary x

let vs_state ~msg (s : 'm Vs_machine.state) =
  let b = Buffer.create 256 in
  buf_add b "created:";
  View_id.Map.iter
    (fun g set -> buf_add b (view_id g ^ "=" ^ proc_set set ^ ";"))
    s.Vs_machine.created;
  buf_add b "cur:";
  Proc.Map.iter
    (fun p g -> buf_add b (Printf.sprintf "%d=%s;" p (view_id_opt g)))
    s.Vs_machine.current_viewid;
  buf_add b "pend:";
  Vs_machine.Pg_map.iter
    (fun (p, g) msgs ->
      buf_add b
        (Printf.sprintf "%d@%s=[%s];" p (view_id g)
           (String.concat "," (List.map msg msgs))))
    s.Vs_machine.pending;
  buf_add b "q:";
  View_id.Map.iter
    (fun g entries ->
      buf_add b
        (Printf.sprintf "%s=[%s];" (view_id g)
           (String.concat ","
              (List.map (fun (m, p) -> msg m ^ "@" ^ string_of_int p) entries))))
    s.Vs_machine.queue;
  buf_add b "nx:";
  Vs_machine.Pg_map.iter
    (fun (p, g) n -> buf_add b (Printf.sprintf "%d@%s=%d;" p (view_id g) n))
    s.Vs_machine.next;
  buf_add b "ns:";
  Vs_machine.Pg_map.iter
    (fun (p, g) n -> buf_add b (Printf.sprintf "%d@%s=%d;" p (view_id g) n))
    s.Vs_machine.next_safe;
  Buffer.contents b

let status = function
  | Vstoto.Normal -> "n"
  | Vstoto.Send -> "s"
  | Vstoto.Collect -> "c"

let node_state (s : Vstoto.state) =
  let b = Buffer.create 256 in
  buf_add b
    (Printf.sprintf "v=%s st=%s seq=%d nc=%d nr=%d hp=%s "
       (match s.Vstoto.current with
       | Some v -> view_id v.View.id ^ proc_set v.View.set
       | None -> "_")
       (status s.Vstoto.status) s.Vstoto.nextseqno s.Vstoto.nextconfirm
       s.Vstoto.nextreport
       (view_id_opt s.Vstoto.highprimary));
  buf_add b ("buf=[" ^ labels (Gcs_stdx.Tape.to_list s.Vstoto.buffer) ^ "] ");
  buf_add b ("ord=[" ^ labels (Gcs_stdx.Tape.to_list s.Vstoto.order) ^ "] ");
  buf_add b
    ("del=[" ^ String.concat "," (Gcs_stdx.Tape.to_list s.Vstoto.delay) ^ "] ");
  buf_add b "con:";
  Label.Map.iter
    (fun l v -> buf_add b (label l ^ "=" ^ v ^ ";"))
    s.Vstoto.content;
  buf_add b "got:";
  Proc.Map.iter
    (fun p x -> buf_add b (Printf.sprintf "%d=%s;" p (summary x)))
    s.Vstoto.gotstate;
  buf_add b ("sx=" ^ proc_set s.Vstoto.safe_exch ^ " ");
  buf_add b
    ("sl=[" ^ labels (Label.Set.elements s.Vstoto.safe_labels) ^ "]");
  Buffer.contents b

let system_state (s : Vstoto_system.state) =
  let b = Buffer.create 1024 in
  buf_add b (vs_state ~msg s.Vstoto_system.vs);
  buf_add b "||";
  Proc.Map.iter
    (fun p n -> buf_add b (Printf.sprintf "[%d:%s]" p (node_state n)))
    s.Vstoto_system.nodes;
  buf_add b "||est:";
  View_id.Map.iter
    (fun g set -> buf_add b (view_id g ^ "=" ^ proc_set set ^ ";"))
    s.Vstoto_system.history.Vstoto_system.established;
  buf_add b "bo:";
  Vstoto_system.Pg_map.iter
    (fun (p, g) ord ->
      buf_add b (Printf.sprintf "%d@%s=[%s];" p (view_id g) (labels ord)))
    s.Vstoto_system.history.Vstoto_system.buildorder;
  Buffer.contents b
