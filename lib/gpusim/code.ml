open Kernel

exception Trap of string

exception Unresolved of Memsys.pending

type tctx = {
  gid : int;
  regs : int array;
  pend : Memsys.pending array;
  l_tid : int;
  l_bid : int;
  l_bdim : int;
  l_gdim : int;
  mem : Memsys.t;
  shared : int array;
}

type ev = tctx -> int

type op =
  | Oassign of int * ev
  | Oload of { site : int; dst : int; space : Kernel.space; addr : ev }
  | Ostore of { site : int; space : Kernel.space; addr : ev; value : ev }
  | Oatomic of {
      site : int;
      dst : int option;
      space : Kernel.space;
      addr : ev;
      arg : ev;
      arg2 : ev;
      rmw : int -> int -> int -> int;
    }
  | Ofence of Kernel.fence_scope
  | Obarrier
  | Ojump of int
  | Ojz of ev * int
  | Oreturn

type t = {
  kernel_name : string;
  ops : op array;
  n_regs : int;
  slots : (string * int) list;
}

let reg_slot code r = List.assoc_opt r code.slots

(* A slot holds either a value in [regs] (its [pend] is
   [Memsys.no_pending]) or a load still in flight in [pend].  Two flat
   arrays, so that writing a value allocates nothing. *)
let set_reg ctx i v =
  ctx.regs.(i) <- v;
  if ctx.pend.(i) != Memsys.no_pending then ctx.pend.(i) <- Memsys.no_pending

let set_pend ctx i p = ctx.pend.(i) <- p

let read_reg ctx i =
  let p = ctx.pend.(i) in
  if p == Memsys.no_pending then ctx.regs.(i)
  else if Memsys.resolved p then begin
    (* A dependent instruction cannot proceed until the load completes;
       the scheduler parks the thread, and the load commits through the
       normal contention-delayed machinery.  This stall is what lets
       program-order-later independent stores retire first (the LB weak
       behaviour). *)
    let v = Memsys.force ctx.mem ~tid:ctx.gid p in
    set_reg ctx i v;
    v
  end
  else raise (Unresolved p)

(* Read-modify-write updates [rmw arg arg2 old]: closed top-level
   functions, so executing an atomic builds no closure. *)
let rmw_cas e d old = if old = e then d else old
let rmw_exch v _ _ = v
let rmw_add v _ old = old + v
let rmw_min v _ old = Int.min old v
let rmw_max v _ old = Int.max old v
let no_arg _ = 0

(* Register slot allocation: every register name mentioned anywhere in the
   kernel gets one slot. *)
let collect_regs k =
  let tbl = Hashtbl.create 16 in
  let slot r =
    if not (Hashtbl.mem tbl r) then Hashtbl.add tbl r (Hashtbl.length tbl)
  in
  let rec exp = function
    | Int _ | Special _ | Param _ -> ()
    | Reg r -> slot r
    | Binop (_, a, b) -> exp a; exp b
    | Unop (_, a) -> exp a
    | Rand a -> exp a
  in
  let atomic = function
    | Acas (a, b) -> exp a; exp b
    | Aexch a | Aadd a | Amin a | Amax a -> exp a
  in
  Kernel.iter_stmts
    (fun s ->
      match s.instr with
      | Assign (r, e) -> slot r; exp e
      | Load { dst; addr; _ } -> slot dst; exp addr
      | Store { addr; value; _ } -> exp addr; exp value
      | Atomic { dst; addr; op; _ } ->
        Option.iter slot dst;
        exp addr;
        atomic op
      | If (c, _, _) | While (c, _) -> exp c
      | Fence _ | Barrier | Return -> ())
    k;
  tbl

let bool_of_int n = n <> 0
let int_of_bool b = if b then 1 else 0

let compile_exp slots args e =
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some i -> i
    | None -> invalid_arg ("Code.compile: unknown register " ^ r)
  in
  let rec go = function
    | Int n -> fun _ -> n
    | Reg r ->
      let i = slot r in
      fun ctx -> read_reg ctx i
    | Special Tid -> fun ctx -> ctx.l_tid
    | Special Bid -> fun ctx -> ctx.l_bid
    | Special Bdim -> fun ctx -> ctx.l_bdim
    | Special Gdim -> fun ctx -> ctx.l_gdim
    | Param p -> (
      match List.assoc_opt p args with
      | Some v -> fun _ -> v
      | None -> invalid_arg ("Code.compile: missing argument for %" ^ p))
    | Binop (op, a, b) ->
      let fa = go a and fb = go b in
      (match op with
      | Add -> fun c -> fa c + fb c
      | Sub -> fun c -> fa c - fb c
      | Mul -> fun c -> fa c * fb c
      | Div ->
        fun c ->
          let d = fb c in
          if d = 0 then raise (Trap "division by zero") else fa c / d
      | Rem ->
        fun c ->
          let d = fb c in
          if d = 0 then raise (Trap "remainder by zero") else fa c mod d
      | Band -> fun c -> fa c land fb c
      | Bor -> fun c -> fa c lor fb c
      | Bxor -> fun c -> fa c lxor fb c
      | Shl -> fun c -> fa c lsl fb c
      | Shr -> fun c -> fa c asr fb c
      | Eq -> fun c -> int_of_bool (fa c = fb c)
      | Ne -> fun c -> int_of_bool (fa c <> fb c)
      | Lt -> fun c -> int_of_bool (fa c < fb c)
      | Le -> fun c -> int_of_bool (fa c <= fb c)
      | Gt -> fun c -> int_of_bool (fa c > fb c)
      | Ge -> fun c -> int_of_bool (fa c >= fb c)
      | Min -> fun c -> Int.min (fa c) (fb c)
      | Max -> fun c -> Int.max (fa c) (fb c))
    | Unop (Neg, a) ->
      let fa = go a in
      fun c -> -fa c
    | Unop (Lnot, a) ->
      let fa = go a in
      fun c -> int_of_bool (not (bool_of_int (fa c)))
    | Rand a ->
      let fa = go a in
      fun c -> Memsys.rand c.mem (fa c)
  in
  go e

let compile k ~args =
  let params = List.sort_uniq compare k.params in
  let given = List.sort_uniq compare (List.map fst args) in
  if params <> given then
    invalid_arg
      (Fmt.str "Code.compile %s: parameters (%a) do not match arguments (%a)"
         k.name
         Fmt.(list ~sep:comma string)
         params
         Fmt.(list ~sep:comma string)
         given);
  let slots = collect_regs k in
  let ce = compile_exp slots args in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some i -> i
    | None -> assert false (* collect_regs visited every register *)
  in
  let buf = ref [] in
  let n = ref 0 in
  let emit op =
    buf := op :: !buf;
    incr n
  in
  (* Emit with backpatching: jump targets are discovered after emitting
     the jump, so record the cell index and patch at the end. *)
  let patches = ref [] in
  let emit_jump_placeholder mk =
    let at = !n in
    emit (Ojump (-1));
    patches := (at, mk) :: !patches
  in
  let rec stmt s =
    match s.instr with
    | Assign (r, e) -> emit (Oassign (slot r, ce e))
    | Load { dst; space; addr } ->
      emit (Oload { site = s.sid; dst = slot dst; space; addr = ce addr })
    | Store { space; addr; value } ->
      emit (Ostore { site = s.sid; space; addr = ce addr; value = ce value })
    | Atomic { dst; space; addr; op } ->
      let arg, arg2, rmw =
        match op with
        | Acas (expected, desired) -> (ce expected, ce desired, rmw_cas)
        | Aexch v -> (ce v, no_arg, rmw_exch)
        | Aadd v -> (ce v, no_arg, rmw_add)
        | Amin v -> (ce v, no_arg, rmw_min)
        | Amax v -> (ce v, no_arg, rmw_max)
      in
      emit
        (Oatomic
           { site = s.sid; dst = Option.map slot dst; space; addr = ce addr;
             arg; arg2; rmw })
    | Fence scope -> emit (Ofence scope)
    | Barrier -> emit Obarrier
    | Return -> emit Oreturn
    | If (c, t, []) ->
      let fc = ce c in
      let jz_at = !n in
      emit (Ojump (-1));
      block t;
      let after = !n in
      patches := (jz_at, fun () -> Ojz (fc, after)) :: !patches
    | If (c, t, e) ->
      let fc = ce c in
      let jz_at = !n in
      emit (Ojump (-1));
      block t;
      let jend_at = !n in
      emit (Ojump (-1));
      let else_start = !n in
      block e;
      let after = !n in
      patches := (jz_at, fun () -> Ojz (fc, else_start)) :: !patches;
      patches := (jend_at, fun () -> Ojump after) :: !patches
    | While (c, b) ->
      let fc = ce c in
      let head = !n in
      emit (Ojump (-1));
      block b;
      emit_jump_placeholder (fun () -> Ojump head);
      let after = !n in
      patches := (head, fun () -> Ojz (fc, after)) :: !patches
  and block b = List.iter stmt b in
  block k.body;
  emit Oreturn;
  let ops = Array.of_list (List.rev !buf) in
  List.iter (fun (at, mk) -> ops.(at) <- mk ()) !patches;
  { kernel_name = k.name; ops; n_regs = Hashtbl.length slots;
    slots = Hashtbl.fold (fun r i acc -> (r, i) :: acc) slots [] }

let make_ctx ~code ~gid ~l_tid ~l_bid ~l_bdim ~l_gdim ~mem ~shared =
  let n = Int.max 1 code.n_regs in
  { gid; regs = Array.make n 0; pend = Array.make n Memsys.no_pending;
    l_tid; l_bid; l_bdim; l_gdim; mem; shared }
