(** Profiling interpreter for inlined Mini-C programs.  Executes [main] on
    the program's own (deterministic, in-source) data and records, per
    statement, execution counts and abstract work — the role of the
    paper's target-platform simulation for cost extraction. *)

open Minic

exception Runtime_error of string

type result = {
  ret : Value.t option;  (** value of [return] in main, if any *)
  profile : Profile.t;
  steps : int;  (** statements executed *)
}

exception Step_limit_exceeded of int

(** Compile the inlined program ({!compile}) and run its [main];
    nothing is cached across calls.  [max_steps] bounds interpreted
    statements (default 50 million). *)
val run : ?max_steps:int -> Ast.program -> result

val default_max_steps : int

(** {2 Compiled code and the slot store}

    The execution runtime ({!module:Runtime}, [lib/runtime]) runs tasks of
    a partitioned program concurrently, each against an isolated store,
    with the same compiled code {!run} uses.  A statement subrange runs
    through {!exec_stmts}; the loop and branch heads the runtime drives
    itself run through {!test}, {!for_init} and {!for_step}. *)

type code
(** A compiled program: one slot per variable name, one closure per
    statement.  Immutable, so tasks on several domains share it. *)

(** Compile a program's globals and its [main] body.  Raises
    {!Runtime_error} if one name is declared with two types (the frontend
    renames such declarations apart); other errors surface when the
    offending code runs. *)
val compile : globals:Ast.decl list -> Ast.block -> code

type store
(** A mutable variable store: one slot per variable of a {!code}, each
    bound or not.  Stores are not thread-safe: each task owns its store
    exclusively. *)

(** A store with every slot unbound. *)
val new_store : code -> store

(** The value bound to a name; arrays share the store's payload. *)
val find : store -> string -> Value.t option

(** Bind a name.  Arrays are stored by reference (no copy).  Raises
    [Invalid_argument] for a name the code does not declare or a value of
    another type. *)
val set : store -> string -> Value.t -> unit

val mem : store -> string -> bool

(** Every bound name with its value, in slot order. *)
val iter : (string -> Value.t -> unit) -> store -> unit

type env
(** Interpreter state over a store: profile, step counter, step budget. *)

(** Cooperative supervision for runtime execution: a watchdog sets
    [cancel]; the interpreter bumps [pulse] and checks [cancel] every
    1024 steps, raising {!Cancelled} — so even pure compute loops
    terminate on a timeout verdict. *)
type supervision = { cancel : bool Atomic.t; pulse : int Atomic.t }

exception Cancelled

exception Return_exn of Value.t option
(** Raised by [return]; carries the returned value. *)

(** Slots a {!Profile.t} needs to cover every statement id of the
    program. *)
val profile_slots : Ast.program -> int

(** An environment over [store].  Statements record their counts and work
    into [profile] as they run; its [total_work] is settled by {!run}
    only, so a runtime task's profile is scratch.  Raises
    [Invalid_argument] if [profile] does not cover the code's statement
    ids. *)
val make_env :
  ?max_steps:int -> ?supervision:supervision -> profile:Profile.t -> store -> env

val env_store : env -> store
val env_steps : env -> int

(** Count one interpreted statement against the step budget. *)
val tick_env : env -> unit

(** Bind the program's globals, evaluating initializers (converted to the
    declared type, as a declaration does). *)
val init_globals : env -> unit

(** Execute statements of the compiled body (looked up by statement id).
    May raise {!Return_exn}, {!Runtime_error} or
    {!Step_limit_exceeded}. *)
val exec_stmts : env -> Ast.stmt list -> unit

(** The condition of an [if], [while] or [for] statement, with C
    truthiness; no step, no profile. *)
val test : env -> Ast.stmt -> bool

(** The initializer and step assignments of a [for] statement (no-ops
    when absent); no step, no profile. *)
val for_init : env -> Ast.stmt -> unit

val for_step : env -> Ast.stmt -> unit
