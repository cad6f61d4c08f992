(** SketchRefine: partition–sketch–refine evaluation for PaQL queries
    over relations far beyond whole-relation MILP reach (Brucato et
    al., SIGMOD'16 "Scalable Package Queries in Relational Database
    Systems").

    Pipeline:

    + {b Partition} (offline, {!Partition}): recursive median splits
      over the constraint attributes ({!Pb_paql.Analyze.aggregate_arguments})
      group the [n] candidates into ~[sqrt n] (or [params.partitions])
      clusters; each cluster is summarised by one representative whose
      constraint coefficients are the cluster means, available in
      multiplicity up to [|cluster| · max_mult].
      The step runs once per table snapshot: when the candidates are the
      whole stored input relation (physically its row store, as for
      every unfiltered query) and there is no [prepartition], the
      partitioning and its feature vectors are cached in the table's
      {!Pb_sql.Database.derived} slot, keyed by the package alias, the
      normalised feature expressions and the target group count. A later
      query with the same key reuses them bit for bit (span attribute
      [cached=true], counter [pb_engine_sketch_partition_reuses_total]);
      any write to the table (INSERT, UPDATE, DELETE, DROP, CSV load)
      drops the slot, and a query with another key replaces it. Filtered
      candidate sets and prepartitioned runs always build fresh and never
      read or write the slot.
    + {b Sketch}: two small representative-level MILPs. The {e mean}
      sketch seeds refinement with a per-partition multiplicity vector.
      The {e bound} sketch replaces each partition's coefficient by its
      loosest member value (row-sense-wise min/max, objective-wise
      best), so every real package maps to a feasible bound-sketch
      point: its optimum is a {e sound} bound on the true optimum, and
      its infeasibility {e proves} the query infeasible.
    + {b Refine}: repeatedly pick the unrefined partitions carrying the
      most sketch mass (up to [params.fanout] per round), and for each
      solve a small MILP over that partition's {e real} tuples plus the
      other partitions' representatives, with already-refined tuples
      frozen as constants. Legs fan out on the {!Pb_par.Pool} under
      {!Pb_util.Gov.child} tokens; the deterministic merge commits the
      best leg (ties to the lowest partition), so results are
      bit-identical at any pool size. After every commit the remaining
      representative mass is greedily materialised into nearest-centroid
      real tuples and validated against the compiled constraints —
      the {e anytime incumbent} a governed stop returns.

    Proof semantics: [proven_optimal] is only claimed when it is sound —
    the bound sketch proved infeasibility, an objective-less query got a
    valid package, or the refined objective meets the sound bound (gap
    ≤ 1e-9). Otherwise the result is feasible-with-reported-gap:
    [bound]/[gap] tell the caller how far the answer can be from the
    true optimum ([|bound - objective| / max(1, |objective|)], the
    {!Pb_obs.Progress.gap_of} formula).

    Applicability: conjunctions of linear atoms (COUNT/SUM comparisons,
    AVG folded to linear form). MIN/MAX atoms, disjunctions, opaque
    formulas and non-linear objectives report [applicable = false] with
    a reason, like {!Sql_generate}.

    Determinism caveat (shared with the hybrid race): child tokens share
    the family's budget meters, so when a budget or deadline fires {e
    mid-run} the stopping point depends on leg interleaving. Runs that
    finish within budget are bit-identical at any [PB_DOMAINS]. *)

type params = {
  partitions : int option;
      (** partition count; [None] = ~sqrt of the candidate count *)
  fanout : int;  (** refine legs per round (deterministic, pool-independent) *)
  prepartition : int array array option;
      (** caller-imposed coarse grouping of the candidate indices (the
          shard router passes its hash partitions): each group is
          sub-split by the usual median-split build over its own members,
          so no refine leg straddles a group boundary. The bound sketch
          relaxes {e any} partitioning, so proof semantics are unchanged.
          Unknown/duplicate indices are dropped and uncovered candidates
          form one extra group; [None] = unconstrained build. *)
}

val default_params : params
(** [{ partitions = None; fanout = 4; prepartition = None }] *)

type outcome = {
  best : Pb_paql.Package.t option;
  best_objective : float option;  (** compiled objective of [best] *)
  bound : float option;
      (** sound bound on the true optimum (bound sketch solved to
          proven optimality); [None] when unavailable *)
  gap : float option;  (** relative gap of [best_objective] vs [bound] *)
  proven_optimal : bool;
  applicable : bool;
  reason : string;  (** why not applicable; [""] when applicable *)
  partitions_built : int;
      (** group count of the partitioning used, built or reused *)
  refine_steps : int;  (** refine-leg MILPs solved *)
  refined_partitions : int;  (** partitions committed to real tuples *)
  stuck_partitions : int;
      (** partitions whose refine legs found no solution *)
  sketch_status : string;  (** mean-sketch MILP status *)
  partition_seconds : float;
  sketch_seconds : float;
  refine_seconds : float;
}

val search :
  params:params ->
  pool:Pb_par.Pool.t ->
  gov:Pb_util.Gov.t ->
  Coeffs.t ->
  outcome
(** Run the pipeline. Cooperative: polls [gov] at round boundaries and
    threads child tokens into every MILP, so cancellation, deadline and
    the [Milp_nodes] budget stop in-flight legs; all legs are joined
    before returning (no orphaned solves). On a governed stop the best
    incumbent found so far is returned. *)
