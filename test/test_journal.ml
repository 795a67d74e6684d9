(* The shared JSONL stream rules (Core.Journal), checked at every byte
   offset for all three streams that use them: the run ledger, the serve
   queue journal and the heartbeat sidecars.  A crash can cut a stream
   anywhere, so for each cut the load must not raise, must return exactly
   the records whose lines are complete, and must flag [torn] exactly when
   the cut lands inside a line; a repair followed by one append must then
   reload cleanly. *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let with_temp f =
  let path = Filename.temp_file "gpuwmm-journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let take n l = List.filteri (fun i _ -> i < n) l

(* [load] applied to a file holding [text]. *)
let load_string ~load text =
  with_temp (fun path ->
      write_all path text;
      match load path with
      | Ok (l : _ Core.Journal.t) -> l.records
      | Error e -> Alcotest.fail e)

(* (start, stop) of each line, [stop] being the offset of its '\n'. *)
let lines text =
  let rec go pos acc =
    match String.index_from_opt text pos '\n' with
    | Some i -> go (i + 1) ((pos, i) :: acc)
    | None -> List.rev acc
  in
  go 0 []

(* The property for one stream.  [text] is a valid stream and [extra]
   one more valid line; [load] is the stream's strict load.  [also path]
   adds the stream's own checks on the file at [path], both after the
   cut and after the repair and append. *)
let every_cut ~load ~text ~extra ?(also = fun _ -> ()) () =
  let full = load_string ~load text in
  let extra_rec =
    match load_string ~load (extra ^ "\n") with
    | [ r ] -> r
    | _ -> Alcotest.fail "the extra line does not decode"
  in
  let spans = lines text in
  Alcotest.(check int) "one record per line" (List.length spans)
    (List.length full);
  with_temp @@ fun path ->
  for cut = 0 to String.length text do
    let fail fmt =
      Printf.ksprintf (fun s -> Alcotest.failf "cut at byte %d: %s" cut s) fmt
    in
    let n = List.length (List.filter (fun (_, stop) -> stop <= cut) spans) in
    let inside =
      List.exists (fun (start, stop) -> start < cut && cut < stop) spans
    in
    let prefix = take n full in
    write_all path (String.sub text 0 cut);
    let loaded =
      match load path with
      | Ok l -> l
      | Error e -> fail "load failed: %s" e
      | exception e -> fail "load raised %s" (Printexc.to_string e)
    in
    if loaded.Core.Journal.records <> prefix then
      fail "%d records, expected %d" (List.length loaded.records) n;
    if loaded.torn <> inside then fail "torn = %b" loaded.torn;
    also path;
    Core.Journal.repair path loaded;
    Core.Journal.append_line ~path extra;
    (match load path with
    | Ok { records; torn = false; _ } when records = prefix @ [ extra_rec ] ->
      ()
    | Ok _ -> fail "repair + append does not reload as prefix @ [new]"
    | Error e -> fail "reload after repair failed: %s" e);
    also path
  done

(* ------------------------------------------------------------------ *)
(* The three streams                                                    *)

let ledger_text () =
  with_temp (fun path ->
      let sink =
        Core.Runlog.create ~deterministic:true ~path
          { Core.Runlog.schema = Core.Runlog.schema_version;
            campaign = "test"; argv = []; seed = 3; jobs = 0;
            grid = Core.Json.Null; git = None; created = 0.0; shard = None;
            merged = None }
      in
      let jn = Core.Runlog.journal ~sink "" in
      Core.Runlog.record jn ~index:0 ~seed:10 ~errors:0 ~duration_s:0.0
        (Core.Json.Int 1);
      Core.Runlog.record jn ~attempts:2 ~index:1 ~seed:11 ~errors:4
        ~duration_s:0.0 (Core.Json.List [ Core.Json.Int 2 ]);
      Core.Runlog.record_failure jn ~index:2 ~seed:12 ~attempts:3
        ~duration_s:0.0 "boom";
      Core.Runlog.append_result sink ~kind:"campaign" (Core.Json.Int 7);
      Core.Runlog.close sink;
      read_all path)

let test_ledger () =
  let text = ledger_text () in
  let load = Core.Journal.load ~decode:Core.Runlog.entry_of_line in
  let is_job = function Core.Runlog.Job _ -> true | _ -> false in
  every_cut ~load ~text
    ~extra:(List.nth (String.split_on_char '\n' text) 2)
    ~also:(fun path ->
      (* The ledger view of the same file: without a complete header it
         fails closed, otherwise its jobs are the complete job lines. *)
      match load path, Core.Runlog.load path with
      | Error e, _ -> Alcotest.fail e
      | Ok { records = Core.Runlog.Header _ :: _ as entries; torn; _ }, Ok l ->
        Alcotest.(check int) "ledger jobs = complete job lines"
          (List.length (List.filter is_job entries))
          (List.length l.Core.Runlog.jobs);
        Alcotest.(check bool) "ledger torn = journal torn" torn
          l.Core.Runlog.torn
      | Ok { records = Core.Runlog.Header _ :: _; _ }, Error e ->
        Alcotest.fail e
      | Ok _, Error _ -> ()
      | Ok _, Ok _ -> Alcotest.fail "a ledger without its header loaded")
    ()

let queue_event k : Core.Queue.event =
  match k mod 3 with
  | 0 ->
    Core.Queue.Submitted
      { t = float_of_int k;
        spec =
          { Core.Queue.id = Printf.sprintf "job-%d" k;
            campaign =
              { kind =
                  Test
                    { chip = "K20"; app = Some "cbe-dot"; runs = 40;
                      env = "sys-str+" };
                seed = 7 };
            workers = 2; priority = 0; max_attempts = 3 } }
  | 1 ->
    Core.Queue.Leased
      { t = float_of_int k; id = "job-0"; shard = 1; pid = 40 + k;
        attempt = 1; deadline = 30.5 }
  | _ ->
    Core.Queue.Shard_done
      { t = float_of_int k; id = "job-0"; shard = 1; degraded = k mod 2 = 0 }

let test_queue () =
  let text =
    with_temp (fun path ->
        Sys.remove path;
        List.iter
          (fun k -> Core.Queue.append ~path (queue_event k))
          [ 0; 1; 2; 4 ];
        read_all path)
  in
  every_cut ~load:Core.Queue.load ~text
    ~extra:
      (Core.Json.to_string
         (Core.Queue.event_to_json
            (Core.Queue.Finished
               { t = 9.0; id = "job-0"; status = "done"; ledger = None })))
    ()

let beat seq =
  { Core.Heartbeat.pid = 101; shard = Some "1/2"; seq; t = 0.5;
    interval_s = 1.0; final = false; label = "campaign"; jobs_done = seq;
    jobs_total = 5; cached = 0; errors = 1; rate = 2.5; eta_s = None;
    retried = 0; quarantined = 0; respawns = 0; minor_words = 0.0;
    minor_collections = 0; major_collections = 0;
    counters = [ ("exec.jobs", seq) ] }

let test_heartbeat () =
  let text =
    with_temp (fun path ->
        Sys.remove path;
        List.iter (fun s -> Core.Heartbeat.append ~path (beat s)) [ 0; 1; 2 ];
        read_all path)
  in
  let load =
    Core.Journal.load ~decode:(fun line ->
        Result.bind (Core.Json.of_string line) Core.Heartbeat.of_json)
  in
  every_cut ~load ~text
    ~extra:(Core.Json.to_string (Core.Heartbeat.to_json (beat 3)))
    ~also:(fun path ->
      (* The lenient stream reader sees the same records. *)
      match load path with
      | Ok l ->
        Alcotest.(check bool) "Heartbeat.load = strict load" true
          (Core.Heartbeat.load path = l.records)
      | Error e -> Alcotest.fail e)
    ()

(* ------------------------------------------------------------------ *)
(* The reader                                                           *)

let decode_int line =
  match int_of_string_opt (String.trim line) with
  | Some n -> Ok n
  | None -> Error "not an int"

let test_physical_lines () =
  let read text = Core.Journal.read ~name:"s" ~decode:decode_int text in
  (match read "1\n\n\nx\n2\n" with
  | Error e -> Alcotest.(check string) "physical line" "s: line 4: not an int" e
  | Ok _ -> Alcotest.fail "a bad middle line must fail closed");
  match read "1\n\n2\n\nx" with
  | Ok { records = [ 1; 2 ]; valid_end = 5; torn = true } -> ()
  | _ -> Alcotest.fail "a bad final line after blanks is a torn tail"

let test_missing_file () =
  with_temp (fun path ->
      Sys.remove path;
      (match Core.Journal.load ~decode:decode_int path with
      | Ok { records = []; valid_end = 0; torn = false } -> ()
      | _ -> Alcotest.fail "a missing stream is empty");
      Alcotest.(check (list int)) "lenient too" []
        (Core.Journal.load_lenient ~decode:decode_int path);
      Core.Journal.repair path
        { Core.Journal.records = []; valid_end = 0; torn = false };
      Alcotest.(check bool) "repair creates nothing" false
        (Sys.file_exists path))

let () =
  Alcotest.run "journal"
    [ ( "cut",
        [ Alcotest.test_case "ledger" `Quick test_ledger;
          Alcotest.test_case "queue" `Quick test_queue;
          Alcotest.test_case "heartbeat" `Quick test_heartbeat ] );
      ( "reader",
        [ Alcotest.test_case "physical line numbers" `Quick
            test_physical_lines;
          Alcotest.test_case "missing file" `Quick test_missing_file ] ) ]
