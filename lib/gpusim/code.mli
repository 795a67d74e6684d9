(** Compilation of kernels to a flat, directly-executable form.

    The structured {!Kernel} AST is lowered once per launch to an array of
    operations over pre-resolved register slots, with expressions staged
    into closures.  Kernel parameters are bound to the launch arguments at
    compile time.  This keeps the per-instruction interpretation cost low
    enough to run the paper's campaigns (hundreds of thousands of simulated
    executions) in seconds. *)

exception Trap of string
(** Raised during execution on kernel faults: out-of-bounds accesses,
    division or remainder by zero, or a jump cycle.  Registers start at
    zero, so reading one is never a fault.  The simulator turns it into
    an erroneous launch outcome. *)

exception Unresolved of Memsys.pending
(** Raised when an instruction needs the value of a still-pending load.
    The scheduler parks the thread until the load commits and then
    re-executes the instruction (expression evaluation is effect-free up
    to the raise, so re-execution is sound). *)

(** Per-thread execution context.  Register slot [i] holds the value
    [regs.(i)] when [pend.(i)] is {!Memsys.no_pending}, and otherwise the
    load [pend.(i)], whose value arrives when it commits.  Write slots
    only through {!set_reg} and {!set_pend}. *)
type tctx = {
  gid : int;  (** physical thread index, keys the memory subsystem *)
  regs : int array;
  pend : Memsys.pending array;
  l_tid : int;  (** logical [threadIdx.x] (after randomisation) *)
  l_bid : int;  (** logical [blockIdx.x] *)
  l_bdim : int;
  l_gdim : int;
  mem : Memsys.t;
  shared : int array;  (** the block's shared memory *)
}

type ev = tctx -> int
(** A staged expression evaluator.  Reading a register that holds a
    pending load forces it (dependency ordering). *)

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
          (** operand evaluators, run in this order before the atomic
              takes effect; [arg2] is CAS's desired value and [0]
              otherwise *)
      rmw : int -> int -> int -> int;
          (** [rmw arg arg2 old] is the new value *)
    }
  | Ofence of Kernel.fence_scope
  | Obarrier
  | Ojump of int
  | Ojz of ev * int  (** jump to target when the condition is zero *)
  | Oreturn

type t = {
  kernel_name : string;
  ops : op array;
  n_regs : int;
  slots : (string * int) list;  (** register-name [->] slot mapping *)
}

val reg_slot : t -> string -> int option
(** The slot allocated to a register name, if the kernel mentions it.
    Lets replay/checker code read back named registers from a context. *)

val compile : Kernel.t -> args:(string * int) list -> t
(** Lower a labelled kernel, binding each parameter to its argument.
    Raises [Invalid_argument] if an argument is missing or unused. *)

val make_ctx :
  code:t ->
  gid:int ->
  l_tid:int -> l_bid:int -> l_bdim:int -> l_gdim:int ->
  mem:Memsys.t -> shared:int array ->
  tctx

val set_reg : tctx -> int -> int -> unit
(** [set_reg ctx i v] makes slot [i] hold the value [v]. *)

val set_pend : tctx -> int -> Memsys.pending -> unit
(** [set_pend ctx i p] makes slot [i] hold the in-flight load [p]. *)

val read_reg : tctx -> int -> int
(** Read a register slot.
    @raise Unresolved if it holds a load that has not completed. *)
