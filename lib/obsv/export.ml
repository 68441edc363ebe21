open Stats

let unattributed = Phases.unattributed

let span_index c =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace tbl s.id s) (Trace.spans c);
  tbl

let end_seq_of c (s : Trace.span) = if s.end_seq < 0 then Trace.final_seq c else s.end_seq

(* Chrome trace_event format (chrome://tracing, Perfetto): spans are complete
   ("X") events, messages instant ("i") events on the sender's track; the
   deterministic event sequence number plays the role of microseconds. *)
let chrome_trace c =
  let tid rank = match rank with None -> 0 | Some r -> r + 1 in
  let attr_args attrs = List.map (fun (k, v) -> (k, Json.Str v)) attrs in
  let span_events =
    List.map
      (fun (s : Trace.span) ->
        Json.Obj
          [
            ("name", Json.Str s.Trace.name);
            ("cat", Json.Str "span");
            ("ph", Json.Str "X");
            ("ts", Json.Int s.Trace.start_seq);
            ("dur", Json.Int (end_seq_of c s - s.Trace.start_seq));
            ("pid", Json.Int 0);
            ("tid", Json.Int (tid s.Trace.rank));
            ( "args",
              Json.Obj
                ([
                   ("span_id", Json.Int s.Trace.id);
                   ( "parent",
                     match s.Trace.parent with None -> Json.Null | Some p -> Json.Int p );
                   ("bits", Json.Int s.Trace.bits);
                   ("messages", Json.Int s.Trace.messages);
                 ]
                @ attr_args s.Trace.attrs) );
          ])
      (Trace.spans c)
  in
  let message_events =
    List.map
      (fun (m : Trace.message) ->
        Json.Obj
          [
            ("name", Json.Str "message");
            ("cat", Json.Str "message");
            ("ph", Json.Str "i");
            ("s", Json.Str "t");
            ("ts", Json.Int m.Trace.seq);
            ("pid", Json.Int 0);
            ("tid", Json.Int (m.Trace.from_ + 1));
            ( "args",
              Json.Obj
                [
                  ("to", Json.Int m.Trace.to_);
                  ("bits", Json.Int m.Trace.bits);
                  ("depth", Json.Int m.Trace.depth);
                  ("span", match m.Trace.span with None -> Json.Null | Some id -> Json.Int id);
                ] );
          ])
      (Trace.messages c)
  in
  let ranks =
    List.sort_uniq compare
      (List.filter_map (fun (s : Trace.span) -> s.Trace.rank) (Trace.spans c)
      @ List.map (fun (m : Trace.message) -> m.Trace.from_) (Trace.messages c))
  in
  let thread_names =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.Str "orchestrator") ]);
      ]
    :: List.map
         (fun r ->
           Json.Obj
             [
               ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int 0);
               ("tid", Json.Int (r + 1));
               ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "player %d" r)) ]);
             ])
         ranks
  in
  Json.Obj
    [
      ("traceEvents", Json.List (thread_names @ span_events @ message_events));
      ("displayTimeUnit", Json.Str "ms");
    ]

(* One JSON object per line, all events merged in sequence order. *)
let jsonl c =
  let idx = span_index c in
  let opens =
    List.map
      (fun (s : Trace.span) ->
        ( s.Trace.start_seq,
          Json.Obj
            ([
               ("event", Json.Str "span_open");
               ("seq", Json.Int s.Trace.start_seq);
               ("span", Json.Int s.Trace.id);
               ("name", Json.Str s.Trace.name);
               ("rank", match s.Trace.rank with None -> Json.Null | Some r -> Json.Int r);
               ("parent", match s.Trace.parent with None -> Json.Null | Some p -> Json.Int p);
             ]
            @ List.map (fun (k, v) -> ("attr:" ^ k, Json.Str v)) s.Trace.attrs) ))
      (Trace.spans c)
  in
  let closes =
    List.map
      (fun (s : Trace.span) ->
        ( end_seq_of c s,
          Json.Obj
            [
              ("event", Json.Str "span_close");
              ("seq", Json.Int (end_seq_of c s));
              ("span", Json.Int s.Trace.id);
              ("name", Json.Str s.Trace.name);
              ("bits", Json.Int s.Trace.bits);
              ("messages", Json.Int s.Trace.messages);
            ] ))
      (Trace.spans c)
  in
  let msgs =
    List.map
      (fun (m : Trace.message) ->
        ( m.Trace.seq,
          Json.Obj
            [
              ("event", Json.Str "message");
              ("seq", Json.Int m.Trace.seq);
              ("from", Json.Int m.Trace.from_);
              ("to", Json.Int m.Trace.to_);
              ("bits", Json.Int m.Trace.bits);
              ("depth", Json.Int m.Trace.depth);
              ( "phase",
                match m.Trace.span with
                | None -> Json.Str unattributed
                | Some id -> (
                    match Hashtbl.find_opt idx id with
                    | Some s -> Json.Str s.Trace.name
                    | None -> Json.Str unattributed) );
            ] ))
      (Trace.messages c)
  in
  List.stable_sort
    (fun (a, _) (b, _) -> compare a b)
    (opens @ closes @ msgs)
  |> List.map (fun (_, j) -> Json.to_string j)

type phase = { phase : string; bits : int; messages : int; max_depth : int; spans : int }

(* Aggregate message bits by the *name* of the attributing span, in order of
   first appearance.  Because every message is counted exactly once (at its
   innermost span, or the unattributed bucket), the rows sum to
   [Cost.total_bits] / [Cost.messages] of the collected executions.
   [spans] counts the span *instances* carrying each name, so a ledger row
   reads "N bits across M messages over S phase executions"; rows are still
   created by messages only (a span that attributed no message stays out of
   the ledger, and the unattributed bucket has no spans by definition). *)
let phases c =
  let idx = span_index c in
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (m : Trace.message) ->
      let name =
        match m.Trace.span with
        | None -> unattributed
        | Some id -> (
            match Hashtbl.find_opt idx id with Some s -> s.Trace.name | None -> unattributed)
      in
      let row =
        match Hashtbl.find_opt acc name with
        | Some row -> row
        | None ->
            let row = ref { phase = name; bits = 0; messages = 0; max_depth = 0; spans = 0 } in
            Hashtbl.replace acc name row;
            order := name :: !order;
            row
      in
      row :=
        {
          !row with
          bits = !row.bits + m.Trace.bits;
          messages = !row.messages + 1;
          max_depth = max !row.max_depth m.Trace.depth;
        })
    (Trace.messages c);
  List.iter
    (fun (s : Trace.span) ->
      match Hashtbl.find_opt acc s.Trace.name with
      | Some row -> row := { !row with spans = !row.spans + 1 }
      | None -> ())
    (Trace.spans c);
  List.rev_map (fun name -> !(Hashtbl.find acc name)) !order

(* Merge per-execution ledgers (e.g. one per engine trial) into one: rows
   with the same phase name add their bits and messages and keep the
   deepest depth; row order is first appearance across the lists in the
   order given, so a deterministic trial order yields a deterministic
   merged ledger. *)
let merge_phases ledgers =
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  List.iter
    (List.iter (fun p ->
         match Hashtbl.find_opt acc p.phase with
         | Some row ->
             row :=
               {
                 !row with
                 bits = !row.bits + p.bits;
                 messages = !row.messages + p.messages;
                 max_depth = max !row.max_depth p.max_depth;
                 spans = !row.spans + p.spans;
               }
         | None ->
             Hashtbl.replace acc p.phase (ref p);
             order := p.phase :: !order))
    ledgers;
  List.rev_map (fun name -> !(Hashtbl.find acc name)) !order

let phase_table_of ?(title = "per-phase communication") rows =
  let total = List.fold_left (fun acc p -> acc + p.bits) 0 rows in
  let total_messages = List.fold_left (fun acc p -> acc + p.messages) 0 rows in
  let total_spans = List.fold_left (fun acc p -> acc + p.spans) 0 rows in
  let table =
    Table.create ~title ~columns:[ "phase"; "bits"; "msgs"; "spans"; "max depth"; "share" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.phase;
          Table.cell_int p.bits;
          Table.cell_int p.messages;
          (if p.phase = unattributed then "-" else Table.cell_int p.spans);
          Table.cell_int p.max_depth;
          (if total = 0 then "-"
           else Printf.sprintf "%5.1f%%" (100.0 *. float_of_int p.bits /. float_of_int total));
        ])
    rows;
  Table.add_row table
    [ "total"; Table.cell_int total; Table.cell_int total_messages; Table.cell_int total_spans; "-"; "100.0%" ];
  table

let phases_json_of rows =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("phase", Json.Str p.phase);
             ("bits", Json.Int p.bits);
             ("messages", Json.Int p.messages);
             ("spans", Json.Int p.spans);
             ("max_depth", Json.Int p.max_depth);
           ])
       rows)
