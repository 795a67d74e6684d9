(** The project's append-only JSONL streams — the run ledger
    ({!Runlog}), the serve queue journal ({!Queue}) and the heartbeat
    sidecars ({!Heartbeat}) — are written, read and repaired here and
    nowhere else.  The contract, at byte granularity:

    {ul
    {- {b Append.}  {!append_line} writes one line and its ['\n'] in a
       single write, so a crash tears at most the final line.  If a
       crash left the file without a trailing newline, the new line
       leads with one instead of gluing onto the fragment.}
    {- {b Read.}  A stream is split on ['\n']; blank lines are skipped
       but still counted, so line numbers are physical.  A complete
       line may lack its ['\n'] (a write cut just before it).  An
       undecodable {e final} line is a torn write: it is dropped and
       flagged [torn].  An undecodable line anywhere else fails closed
       with [NAME: line N: reason].}
    {- {b Repair.}  A stream that is appended to across restarts must
       lose a torn tail on disk before its next append, or the fragment
       becomes a fatal mid-file line.  {!repair} truncates to the end of
       the valid prefix a load already found; it decodes nothing.}}

    Every stream is created by its first append, so a missing file
    reads as an empty stream. *)

type 'a t = {
  records : 'a list;  (** decoded records, oldest first *)
  valid_end : int;
      (** byte offset just past the last decoded line and its ['\n'],
          when it has one (0 when nothing decoded) *)
  torn : bool;  (** an undecodable final line was dropped *)
}

val append_line : path:string -> string -> unit
(** Append [line] plus ['\n'] to the file in one write, creating it if
    needed, with a leading ['\n'] when the file lacks a trailing one.
    Raises [Unix.Unix_error]. *)

val read :
  name:string -> decode:(string -> ('a, string) result) -> string ->
  ('a t, string) result
(** Read stream text.  [name] prefixes every error. *)

val load :
  decode:(string -> ('a, string) result) -> string -> ('a t, string) result
(** {!read} the file at a path, named by its path. *)

val load_lenient : decode:(string -> ('a, string) result) -> string -> 'a list
(** Every decodable line of the file at a path, oldest first, skipping
    undecodable lines wherever they are.  An unreadable file is empty. *)

val repair : string -> _ t -> unit
(** [repair path loaded] truncates the file to [loaded.valid_end] and
    ends it with ['\n'] if that prefix lacks one.  [loaded] must be the
    latest load of [path], with no append since.  A missing file is a
    no-op. *)
