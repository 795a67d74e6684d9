(* One campaign: kind, master seed and geometry.  Every consumer of a
   campaign — the ledger header, a shard worker's argv, the serve
   queue's journal and /submit body, the merge's result reconstruction
   — reads this one value, so the grid bytes a worker records always
   equal the ones its parent validates against. *)

open Runlog.Dec

type kind =
  | Test of { chip : string; env : string; app : string option; runs : int }
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

let campaign s =
  match s.kind with
  | Test _ -> "test"
  | Tune _ -> "tune"
  | Harden _ -> "harden"
  | Table { number; _ } -> Printf.sprintf "table%d" number
  | Figure { number; _ } -> Printf.sprintf "figure%d" number

let strs l = Json.List (List.map (fun s -> Json.String s) l)
let all_apps () = List.map (fun a -> a.Apps.App.name) Apps.Registry.all

let grid s =
  let open Json in
  match s.kind with
  | Test { chip; env; app; runs } ->
    Assoc
      [ ("chips", strs [ chip ]); ("envs", strs [ env ]);
        ("apps", strs (match app with Some a -> [ a ] | None -> all_apps ()));
        ("runs", Int runs) ]
  | Tune { chip; budget } ->
    Assoc [ ("chips", strs [ chip ]); ("budget", Budget.to_json budget) ]
  | Harden { chip; app; stability_runs } ->
    Assoc
      [ ("chips", strs [ chip ]); ("apps", strs [ app ]);
        ("stability_runs", Int stability_runs) ]
  | Table { chips; budget; runs; _ } | Figure { chips; budget; runs; _ } ->
    Assoc
      [ ("chips", strs chips); ("budget", Budget.to_json budget);
        ("runs", Int runs) ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)

let chip_name s =
  match Gpusim.Chip.by_name s with
  | Some c -> Ok c.Gpusim.Chip.name
  | None -> Error (Printf.sprintf "unknown chip %S" s)

let app_name s =
  match Apps.Registry.by_name s with
  | Some a -> Ok a.Apps.App.name
  | None -> Error (Printf.sprintf "unknown application %S" s)

(* Environment labels do not depend on the chip's tuning. *)
let env_labels =
  lazy
    (List.map
       (fun e -> e.Environment.label)
       (Environment.all
          ~tuned:{ Stress.sequence = []; spread = 1; regions = 1 }))

(* A budget [ok] accepts, with the --full/--runs-scale flags that build
   it: the base budget itself, or the shortest decimal scale inside the
   interval that maps every base per-point count onto [counts]. *)
let budget_flags ~counts ok =
  List.find_map
    (fun full ->
      let base = Budget.of_flags ~full ~runs_scale:1.0 in
      let pairs =
        List.combine
          [ base.Budget.runs_patch; base.runs_seq; base.runs_spread ]
          counts
        |> List.map (fun (n, m) -> (float_of_int n, float_of_int m))
      in
      let lo =
        List.fold_left
          (fun a (n, m) -> if m <= 1.0 then a else Float.max a (m /. n))
          0.0 pairs
      in
      let hi =
        List.fold_left (fun a (n, m) -> Float.min a ((m +. 1.0) /. n))
          infinity pairs
      in
      let flags = if full then [ "--full" ] else [] in
      if ok base then Some (base, flags)
      else
        List.find_map
          (fun digits ->
            let s = Printf.sprintf "%.*g" digits ((lo +. hi) /. 2.0) in
            let b = Budget.of_flags ~full ~runs_scale:(float_of_string s) in
            if ok b then Some (b, flags @ [ "--runs-scale"; s ]) else None)
          (List.init 17 succ))
    [ false; true ]

(* "table5" -> Some 5 for [prefix] "table". *)
let numbered prefix k =
  let n = String.length prefix in
  if String.length k > n && String.sub k 0 n = prefix then
    int_of_string_opt (String.sub k n (String.length k - n))
  else None

(* The spec of campaign [campaign] whose grid fields [g] holds, in the
   registries' spelling; every decoder ends here. *)
let of_grid ~campaign ~seed g =
  let names k =
    let* l = list k g in
    all
      (fun v ->
        Option.to_result ~none:(Printf.sprintf "mistyped name in %S" k)
          (Json.to_str v))
      l
  in
  let one k =
    let* l = names k in
    match l with
    | [ x ] -> Ok x
    | _ -> Error (Printf.sprintf "grid %S is not a single name" k)
  in
  let chip () = Result.bind (one "chips") chip_name in
  let app () = Result.bind (one "apps") app_name in
  let budget () =
    let* bj = field "budget" g in
    let* counts =
      all (fun k -> int k bj) [ "runs_patch"; "runs_seq"; "runs_spread" ]
    in
    match budget_flags ~counts (fun b -> Budget.to_json b = bj) with
    | Some (b, _) -> Ok b
    | None -> Error "no --full/--runs-scale gives the grid's budget"
  in
  let artifact () =
    let* chips = Result.bind (names "chips") (all chip_name) in
    let* budget = budget () in
    let* runs = int "runs" g in
    Ok (chips, budget, runs)
  in
  let* kind =
    match campaign with
    | "test" ->
      let* chip = chip () in
      let* env = one "envs" in
      let* apps = names "apps" in
      let* app =
        match apps with [ _ ] -> Result.map Option.some (app ()) | _ -> Ok None
      in
      let* runs = int "runs" g in
      if List.mem env (Lazy.force env_labels) then
        Ok (Test { chip; env; app; runs })
      else Error (Printf.sprintf "unknown environment %S" env)
    | "tune" ->
      let* chip = chip () in
      let* budget = budget () in
      Ok (Tune { chip; budget })
    | "harden" ->
      let* chip = chip () in
      let* app = app () in
      let* stability_runs = int "stability_runs" g in
      Ok (Harden { chip; app; stability_runs })
    | k -> (
      match (numbered "table" k, numbered "figure" k) with
      | Some number, _ ->
        let* chips, budget, runs = artifact () in
        Ok (Table { number; chips; budget; runs })
      | None, Some number ->
        let* chips, budget, runs = artifact () in
        Ok (Figure { number; chips; budget; runs })
      | None, None -> Error (Printf.sprintf "unknown campaign kind %S" k))
  in
  Ok { kind; seed }

let of_header (h : Runlog.header) =
  let g = h.Runlog.grid in
  let* s = of_grid ~campaign:h.Runlog.campaign ~seed:h.Runlog.seed g in
  (* No extra field, no other spelling, and no app list that is neither
     one application nor all of them. *)
  if grid s = g then Ok s
  else
    Error
      (Printf.sprintf "the %s grid %s is not one gpuwmm writes"
         h.Runlog.campaign (Json.to_string g))

(* ------------------------------------------------------------------ *)
(* Argv                                                                 *)

let to_argv s =
  let i = string_of_int in
  let seed = [ "--seed"; i s.seed ] in
  let budget b =
    let counts = [ b.Budget.runs_patch; b.runs_seq; b.runs_spread ] in
    match budget_flags ~counts (( = ) b) with
    | Some (_, flags) -> flags
    | None -> invalid_arg "Spec.to_argv: no --full/--runs-scale gives it"
  in
  match s.kind with
  | Test { chip; env; app; runs } ->
    [ "test"; "--chip"; chip; "--runs"; i runs; "--env"; env ]
    @ seed
    @ Option.fold ~none:[] ~some:(fun a -> [ "--app"; a ]) app
  | Tune { chip; budget = b } -> [ "tune"; "--chip"; chip ] @ seed @ budget b
  | Harden { chip; app; stability_runs } ->
    [ "harden"; "--chip"; chip; "--app"; app; "--stability-runs";
      i stability_runs ]
    @ seed
  | Table { number; chips; budget = b; runs } ->
    [ "table"; i number; "--chips"; String.concat "," chips; "--runs"; i runs ]
    @ seed @ budget b
  | Figure { number; chips; budget = b; runs } ->
    [ "figure"; i number; "--chips"; String.concat "," chips; "--runs";
      i runs ]
    @ seed @ budget b

(* The flags become grid fields (an absent --app means every
   application), so argv decodes like a ledger header. *)
let of_argv argv =
  let campaign, flags =
    match argv with
    | (("table" | "figure") as c) :: n :: tl -> (c ^ n, tl)
    | c :: tl -> (c, tl)
    | [] -> ("", [])
  in
  let rec fields acc = function
    | [] -> Ok acc
    | "--full" :: tl -> fields (("full", Json.Bool true) :: acc) tl
    | f :: v :: tl -> (
      let next k j = fields ((k, j) :: acc) tl in
      match (f, int_of_string_opt v) with
      | ("--chip" | "--chips"), _ ->
        next "chips" (strs (String.split_on_char ',' v))
      | "--env", _ -> next "envs" (strs [ v ])
      | "--app", _ -> next "apps" (strs [ v ])
      | "--runs", Some n -> next "runs" (Json.Int n)
      | "--stability-runs", Some n -> next "stability_runs" (Json.Int n)
      | "--seed", Some n -> next "seed" (Json.Int n)
      | "--runs-scale", _ when float_of_string_opt v <> None ->
        next "runs_scale" (Json.Float (float_of_string v))
      | _ -> Error (Printf.sprintf "unexpected argument %s %S" f v))
    | [ a ] -> Error (Printf.sprintf "unexpected argument %S" a)
  in
  let* fl = fields [] flags in
  let* seed = int "seed" (Json.Assoc fl) in
  let budget =
    Budget.of_flags
      ~full:(List.mem_assoc "full" fl)
      ~runs_scale:
        (Option.value ~default:1.0
           (Option.bind (List.assoc_opt "runs_scale" fl) Json.to_float))
  in
  of_grid ~campaign ~seed
    (Json.Assoc
       (fl
       @ [ ("apps", strs (all_apps ())); ("budget", Budget.to_json budget) ]
       ))

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)

(* A test campaign keeps the serve queue's historical field order; the
   other kinds carry their grid fields. *)
let to_json s =
  let open Json in
  let geometry =
    match s.kind with
    | Test { chip; env; app; runs } ->
      (("chip", String chip)
      :: Option.fold ~none:[] ~some:(fun a -> [ ("app", String a) ]) app)
      @ [ ("runs", Int runs); ("env", String env) ]
    | _ -> fields (grid s)
  in
  Assoc
    ((("kind", String (campaign s)) :: geometry) @ [ ("seed", Int s.seed) ])

let of_json j =
  let* name = opt_str "kind" j in
  let* seed = opt_int "seed" j in
  let seed = Option.value seed ~default:42 in
  match Option.value name ~default:"test" with
  | "test" ->
    let* chip = str "chip" j in
    let* app = opt_str "app" j in
    let* runs = opt_int "runs" j in
    let* env = opt_str "env" j in
    let runs = Option.value runs ~default:100 in
    if runs < 1 then Error "runs must be >= 1"
    else
      of_grid ~campaign:"test" ~seed
        (Json.Assoc
           [ ("chips", strs [ chip ]);
             ("envs", strs [ Option.value env ~default:"sys-str+" ]);
             ( "apps",
               strs (Option.fold ~none:(all_apps ()) ~some:(fun a -> [ a ]) app)
             );
             ("runs", Json.Int runs) ])
  | campaign -> of_grid ~campaign ~seed j
