(** A campaign: its kind, its master seed and its geometry.

    This is the one description of what a campaign runs.  The CLI's
    ledgered commands build one; the ledger header records its
    {!campaign} name and {!grid}; a shard worker is spawned with
    {!to_argv}; the serve queue journals {!to_json}.  A grid's bytes
    are derived from a spec and nowhere else, so a worker, the
    process that spawned it and a later [--resume] cannot disagree
    about them.

    Chip and application names are stored in the registries' spelling
    (["K20"], ["cbe-ht"]), whatever case a caller used: every decoder
    canonicalises them and refuses unknown names and environments. *)

type kind =
  | Test of { chip : string; env : string; app : string option; runs : int }
      (** [gpuwmm test]; [app = None] runs every registered application *)
  | Tune of { chip : string; budget : Budget.t }
  | Harden of { chip : string; app : string; stability_runs : int }
  | Table of {
      number : int;
      chips : string list;
      budget : Budget.t;
      runs : int;
    }
  | Figure of {
      number : int;
      chips : string list;
      budget : Budget.t;
      runs : int;
    }

type t = { kind : kind; seed : int }

val campaign : t -> string
(** The ledger header's campaign kind: ["test"], ["tune"], ["harden"],
    ["table<N>"] or ["figure<N>"]. *)

val grid : t -> Json.t
(** The parameter grid the ledger header records and
    {!Runlog.validate_resume} compares. *)

val to_argv : t -> string list
(** The CLI subcommand and flags that run this campaign, without the
    program name: e.g. [["test"; "--chip"; "K20"; "--runs"; "4";
    "--env"; "sys-str+"; "--seed"; "7"; "--app"; "cbe-dot"]].  A budget
    is written as [--full] / [--runs-scale F] with the shortest [F] that
    rebuilds it; [Invalid_argument] if none does. *)

val of_argv : string list -> (t, string) result
(** Inverse of {!to_argv}.  As on the command line, [--app] (every
    application), [--full] and [--runs-scale] may be left out. *)

val to_json : t -> Json.t
(** An object whose ["kind"] is {!campaign}, then the geometry, then
    ["seed"].  For a [test] campaign this is the field sequence of the
    serve queue's journal and [/submit] body:
    [kind, chip, app?, runs, env, seed]. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}, ignoring fields it does not know.  A
    submission may leave out ["kind"] (["test"]), ["seed"] (42) and, for
    a test campaign, ["runs"] (100, at least 1) and ["env"]
    (["sys-str+"]). *)

val of_header : Runlog.header -> (t, string) result
(** The spec whose {!campaign} and {!grid} a ledger header records;
    an error if no spec describes exactly that grid. *)
