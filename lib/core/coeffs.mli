(** Compiled query context shared by every evaluation strategy.

    [make] runs the base constraints once (via {!Pb_paql.Semantics}),
    linearizes the SUCH THAT formula and the objective (via
    {!Pb_paql.Analyze}), and precomputes one dense coefficient vector per
    linear atom — the per-candidate-tuple contribution to each global
    aggregate. A package's aggregates are then inner products with its
    multiplicity vector, which is what makes pruning-bound derivation, the
    compiled validity check, ILP translation, and local-search delta
    evaluation all cheap and mutually consistent. *)

type compiled_atom =
  | C_linear of {
      coef : float array;
      cmp : Pb_paql.Analyze.cmp;
      rhs : float;
      has_sum : bool;
          (** the atom mentions a SUM term, so — like every SQL aggregate
              except COUNT — it is NULL (hence unsatisfied) on the empty
              package *)
    }  (** Σ coef.(i)·mult.(i) cmp rhs *)
  | C_avg of { arg : float array; cmp : Pb_paql.Analyze.cmp; rhs : float }
      (** AVG over selected tuples (with multiplicity) cmp rhs; empty
          packages fail *)
  | C_ext of {
      maximum : bool;
      arg : float array;
      cmp : Pb_paql.Analyze.cmp;
      rhs : float;
    }  (** MIN/MAX over the support cmp rhs; empty packages fail *)

type compiled_formula =
  | C_true
  | C_false
  | C_atom of compiled_atom
  | C_and of compiled_formula list
  | C_or of compiled_formula list

type t = {
  db : Pb_sql.Database.t;
      (** connection the query was prepared against — threaded into the
          semantic oracle so opaque formulas with subqueries evaluate *)
  query : Pb_paql.Ast.t;
  candidates : Pb_relation.Relation.t;
      (** base-constraint survivors, input-alias-qualified *)
  batch : Pb_paql.Semantics.batch option;
      (** columnar view of [candidates] when the storage mode is columnar
          and the base predicate vectorized — coefficient vectors are then
          extracted by batch kernels (bit-identical floats) *)
  n : int;  (** number of candidate tuples *)
  max_mult : int;  (** per-tuple multiplicity cap (1 + REPEAT) *)
  formula : (compiled_formula, string) result;
      (** [Error reason] when SUCH THAT is not linearizable — strategies
          then fall back to the {!Pb_paql.Semantics} oracle *)
  objective : (Pb_paql.Ast.direction * float array) option option;
      (** [None]: no objective; [Some None]: objective present but not
          linear; [Some (Some (dir, coef))]: compiled *)
}

val make : Pb_sql.Database.t -> Pb_paql.Ast.t -> t
(** Raises [Failure] on missing tables or ill-formed queries (see
    {!Pb_paql.Analyze.validate_query}). Runs inside a [coeffs.make] trace
    span carrying the [candidates] count and whether the columnar
    [batch] path produced them. *)

val tuple_values : t -> Pb_sql.Ast.expr -> float array
(** Per-candidate value of a package-level expression argument (e.g. the
    [e] of SUM(e)); NULL and non-numeric evaluate to 0 with a warning
    logged. *)

val check : t -> Pb_paql.Package.t -> bool
(** Compiled validity (multiplicity cap + formula). Falls back to the
    semantic oracle when the formula is opaque. *)

val check_mult : t -> int array -> bool
(** Same, on a raw multiplicity vector (no Package allocation). *)

val objective_of_mult : t -> int array -> float option
(** Compiled objective; [None] when the query has none, when it is not
    linear (callers should then use {!Pb_paql.Semantics.objective_value}),
    or when the package is empty (SQL NULL). *)

val package_of_mult : t -> int array -> Pb_paql.Package.t
