(** SQL execution over the in-memory catalog.

    The executor is deliberately a straightforward iterator pipeline
    (product → filter → group → project → sort → limit): PackageBuilder's
    §4.2 argument about k-replacement local search — that the neighbourhood
    query is "a selection over a Cartesian product" whose cost explodes as
    a 2k-way join — depends only on this complexity shape, which a fancier
    optimizer would obscure. *)

exception Eval_error of string

type result =
  | Rows of Pb_relation.Relation.t  (** SELECT result *)
  | Affected of int                 (** rows inserted/deleted/updated *)
  | Created                         (** DDL acknowledgement *)

val eval_expr :
  ?db:Database.t ->
  ?gov:Pb_util.Gov.t ->
  Pb_relation.Schema.t ->
  Pb_relation.Value.t array ->
  Ast.expr ->
  Pb_relation.Value.t
(** The tree-walking interpreter: evaluate a scalar expression against one
    row. It is the differential oracle for {!compile_expr} and its subquery
    fallback. Aggregate nodes raise {!Eval_error} here (they only make
    sense over a group); subqueries need [db] and inherit [gov]. *)

val compile_expr :
  ?db:Database.t ->
  ?gov:Pb_util.Gov.t ->
  Pb_relation.Schema.t ->
  Ast.expr ->
  Pb_relation.Value.t array ->
  Pb_relation.Value.t
(** The production row evaluator: {!Compile.expr} with {!eval_expr} (same
    [db] and [gov]) as the subquery fallback. This is the
    {!Planner.compile_fn} the executor runs plans with. *)

val eval_const : ?db:Database.t -> Ast.expr -> Pb_relation.Value.t
(** Evaluate a row-independent expression (literals/arithmetic). *)

val eval_agg_expr :
  ?db:Database.t ->
  ?gov:Pb_util.Gov.t ->
  Pb_relation.Schema.t ->
  Pb_relation.Value.t array list ->
  Ast.expr ->
  Pb_relation.Value.t
(** Evaluate an expression over a group of rows: {!eval_expr} with the
    group attached, so aggregate nodes reduce the whole group and other
    column references resolve against the first row (the group-by
    representative; all NULLs for an empty group). This is exactly the
    semantics the package validator reuses to check SUCH THAT
    constraints, treating the candidate package as one group. *)

val select :
  ?memo:Compile.Memo.t ->
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  Ast.select ->
  Pb_relation.Relation.t
(** Run a SELECT. When [memo] is supplied (by the prepared-plan cache),
    compiled expression closures are reused across executions of the same
    statement instead of being rebuilt.

    [gov] is the request's governance token: it is polled (sampled)
    inside every planner and executor loop, and a stop raises
    {!Pb_util.Gov.Interrupted} — SQL has no useful partial result, so
    cancellation abandons the statement outright. Subqueries run under
    [gov] too, cached plan or not. *)

val execute :
  ?memo:Compile.Memo.t -> ?gov:Pb_util.Gov.t -> Database.t -> Ast.statement -> result
val execute_sql : ?gov:Pb_util.Gov.t -> Database.t -> string -> result
(** Parse then execute a single statement. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE with [%] and [_] wildcards (exposed for tests; the matcher
    itself lives in {!Compile}). *)
