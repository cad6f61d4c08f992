(** Expression → closure compilation: the row evaluator every production
    call site uses. The tree-walking interpreter ({!Executor.eval_expr})
    stays as its differential oracle and as the subquery fallback.

    [expr] makes one pass over an {!Ast.expr} and returns a
    [Value.t array -> Value.t] closure in which

    + every column reference is resolved to its integer offset once, at
      compile time (an unknown or ambiguous column compiles to a closure
      that raises the interpreter's exact [Failure] when first invoked,
      so zero-row inputs behave identically);
    + binary operators, CASE ladders and scalar-function argument lists
      are pre-dispatched to direct value-level calls;
    + LIKE patterns are compiled to a token array once instead of being
      re-scanned per row;
    + subqueries ([IN (SELECT …)], [EXISTS]) fall back to the supplied
      interpreter callback — the only nodes that still walk the tree.

    The compiled closure is {e bit-identical} to the interpreter on every
    input, including NULL propagation, type errors and the exception
    raised (property-tested in [test_differential.ml]). Closures are pure
    reads of the row array and are safe to call from pool worker domains.

    The scalar kernel shared by the interpreter and the compiler
    ({!like_match}, {!scalar_function}, {!binop_value}, {!Eval_error})
    lives here; {!Executor} re-exports the public pieces. *)

exception Eval_error of string

val like_match : pattern:string -> string -> bool
(** SQL LIKE with [%] and [_] wildcards — the reference two-pointer
    matcher over the raw pattern string. *)

type like_pattern
(** A LIKE pattern pre-compiled to a token array. *)

val compile_like : string -> like_pattern
val like_match_compiled : like_pattern -> string -> bool
(** [like_match_compiled (compile_like p) s = like_match ~pattern:p s]
    for every [p] and [s] (property-tested). *)

val scalar_function :
  string -> Pb_relation.Value.t list -> Pb_relation.Value.t
(** Scalar function dispatch (abs, lower, upper, length, round, floor,
    ceil, coalesce, sqrt); raises {!Eval_error} on unknown names. *)

val binop_value :
  Ast.binop -> Pb_relation.Value.t -> Pb_relation.Value.t -> Pb_relation.Value.t

type fallback = Pb_relation.Value.t array -> Ast.expr -> Pb_relation.Value.t
(** Interpreter callback for subquery nodes, closing over the schema, the
    database and the request's governance token. {!Executor.compile_expr}
    builds it from {!Executor.eval_expr}; outside the executor, only the
    differential tests call {!expr} directly. *)

val expr :
  fallback:fallback ->
  Pb_relation.Schema.t ->
  Ast.expr ->
  Pb_relation.Value.t array ->
  Pb_relation.Value.t
(** Compile an expression against a schema. The first two applications
    perform the compilation; the resulting closure evaluates one row. *)

(** Memoized compilation for prepared plans: a mutex-guarded table keyed
    by (expression, schema columns), so re-executing a cached statement
    reuses its closures instead of re-resolving offsets. One memo belongs
    to one (statement, database) pair — the {!Plan_cache} invalidates the
    whole entry when the database's schema version moves. *)
module Memo : sig
  type t

  val create : unit -> t
  val size : t -> int

  val expr :
    t ->
    fallback:fallback ->
    Pb_relation.Schema.t ->
    Ast.expr ->
    Pb_relation.Value.t array ->
    Pb_relation.Value.t
  (** Like {!val:Compile.expr}, consulting the memo first. Expressions
      containing a subquery are never memoized: their closure captures
      [fallback], and with it the caller's governance token, so they are
      compiled afresh on every call. *)
end
