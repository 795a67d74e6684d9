(* The one module that knows the line-oriented JSONL rules: how a line
   is appended, how a stream is split and decoded, and how a torn tail
   comes off disk. *)

type 'a t = { records : 'a list; valid_end : int; torn : bool }

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)

(* Whether the open file [fd] is non-empty and does not end in '\n'.
   Leaves the offset at the end of the file. *)
let lacks_final_newline fd =
  (Unix.fstat fd).Unix.st_size > 0
  && begin
       ignore (Unix.lseek fd (-1) Unix.SEEK_END);
       let b = Bytes.create 1 in
       Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n'
     end

let write_all fd s =
  let n = String.length s in
  let rec w off =
    if off < n then w (off + Unix.write_substring fd s off (n - off))
  in
  w 0

let with_fd fd f =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    f

(* One open-append-write-close per line: the line lands in a single
   write, so a crash tears at most the final line.  A crash can also
   leave the file without a trailing newline (a torn fragment, or a full
   line cut just before its '\n'); the new line then leads with one, so
   it starts fresh instead of gluing onto the fragment — a glued line
   would be lost to a lenient reader, or fail a strict reader's mid-file
   check and wedge the stream. *)
let append_line ~path line =
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  with_fd fd (fun () ->
      let nl = if lacks_final_newline fd then "\n" else "" in
      write_all fd (nl ^ line ^ "\n"))

let repair path loaded =
  match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | fd ->
    with_fd fd (fun () ->
        if (Unix.fstat fd).Unix.st_size > loaded.valid_end then
          Unix.ftruncate fd loaded.valid_end;
        if lacks_final_newline fd then write_all fd "\n")

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)

(* The non-blank lines of [text] in order, each with its 1-based
   physical line number and the offset just past its '\n' (or the end
   of the text). *)
let lines text =
  let len = String.length text in
  let rec go lineno pos acc =
    if pos >= len then List.rev acc
    else
      let stop =
        Option.value (String.index_from_opt text pos '\n') ~default:len
      in
      let next = Int.min len (stop + 1) in
      let line = String.sub text pos (stop - pos) in
      go (lineno + 1) next
        (if String.trim line = "" then acc else (lineno, next, line) :: acc)
  in
  go 1 0 []

let read ~name ~decode text =
  let rec go recs valid_end = function
    | [] -> Ok { records = List.rev recs; valid_end; torn = false }
    | (lineno, next, line) :: rest -> (
      match decode line with
      | Ok r -> go (r :: recs) next rest
      | Error _ when rest = [] ->
        (* The final line: a kill landed mid-write.  Everything before
           it was durably written and survives. *)
        Ok { records = List.rev recs; valid_end; torn = true }
      | Error e -> Error (Printf.sprintf "%s: line %d: %s" name lineno e))
  in
  go [] 0 (lines text)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error _ when not (Sys.file_exists path) -> Ok ""
  | exception Sys_error e -> Error e

let load ~decode path =
  Result.bind (read_file path) (read ~name:path ~decode)

let load_lenient ~decode path =
  let text = Result.value (read_file path) ~default:"" in
  List.filter_map
    (fun (_, _, line) -> Result.to_option (decode line))
    (lines text)
