(** Offline candidate partitioner for the SketchRefine strategy.
    {!Sketch_refine} builds one partitioning per table snapshot and
    reuses it for later unfiltered queries over the same features and
    target until a write to the table invalidates it; this module itself
    is pure and caches nothing.

    Recursive median splitting over the constraint-attribute feature
    space (a kd-tree-style quantile grid, the "offline partitioning" of
    Brucato et al.'s SIGMOD'16 SketchRefine): starting from one group
    holding every candidate, repeatedly split the largest group along
    the feature dimension with the widest value spread at its median,
    until [target] groups exist or no group can be split further. A
    group whose members agree on every feature is never split, so
    all-identical inputs (or an empty feature list, e.g. a COUNT-only
    query) yield a single partition and the group count never exceeds
    the number of distinct feature vectors.

    Each split is an in-place index quickselect over one shared
    permutation: the group's lower half is its [m / 2] members that come
    first in the order (value by [Float.compare], NaN lowest, then
    candidate index). No group is sorted until the end, so a build costs
    O(n log k) for [k] groups; a quickselect that degenerates sorts its
    range after 2·log2(m) rounds instead.

    NaN feature values are skipped when measuring a group's spread, so a
    NaN anywhere (first candidate included) never blocks a dimension from
    being split; when a NaN-bearing dimension is split, its NaN members
    go to the lower half.

    Guarantees, relied on by the sketch models and locked down by
    [test/test_partition.ml]:

    - groups are disjoint, nonempty, and cover [0, n) exactly;
    - each group's index array is ascending, and groups are ordered by
      their smallest member, so the output is canonical;
    - centroids are per-feature means summed in ascending index order,
      hence always inside the group's per-feature [min, max] envelope
      (for NaN-free features);
    - the construction is purely sequential and deterministic: no
      randomness, no domain pool, so the same inputs give bit-identical
      partitions at any [PB_DOMAINS]. *)

type t = {
  groups : int array array;
      (** [groups.(p)] = candidate indices of partition [p], ascending *)
  centroids : float array array;
      (** [centroids.(p).(d)] = mean of feature [d] over group [p] *)
}

val build : target:int -> features:float array array -> n:int -> t
(** [build ~target ~features ~n] partitions candidates [0, n) using
    [features] (each a per-candidate value array of length [n]).
    [target] is clamped to [1, n]; [n = 0] yields zero groups. *)

val group_count : t -> int

