(** Mutable catalog of named relations — the "DBMS" whose role PostgreSQL
    plays in the paper. PackageBuilder proper only talks to this through
    SQL (see {!Executor}); the workload generators install relations
    directly. Table names are case-insensitive.

    Indexes are declared per (table, column); they are built lazily on
    first use and invalidated whenever the table is replaced (every DML
    statement replaces the stored relation).

    Every operation below is serialized by an internal mutex, so a
    database may be read from several pool domains at once (parallel
    scans, hash joins, subquery evaluation on worker domains — including
    the lazy index build, which happens at most once per column) while
    another domain installs or drops tables. Relations are immutable, so
    returned values are safe to use without further synchronization. *)

type t

val create : unit -> t

val with_scratch : (t -> 'a) -> 'a
(** [with_scratch f] runs [f] on a fresh catalog and, when [f] returns or
    raises, releases everything it cached: its columnar images and
    derived values leave the process-wide [pb_store_bytes_resident]
    gauge. Per-request scratch catalogs (router merges, local-search
    temp tables) use it; a bare {!create} keeps its bytes counted until
    its tables are dropped. *)

val version : t -> int
(** Schema/DDL generation counter: bumps when a table is created, dropped
    or replaced with a different schema, or an index is declared — but not
    on schema-preserving DML, so {!Plan_cache} entries survive data
    changes and are invalidated by catalog changes. *)

val put : t -> string -> Pb_relation.Relation.t -> unit
(** Install or replace a table; cached indexes on it are invalidated. *)

val find : t -> string -> Pb_relation.Relation.t option
val find_exn : t -> string -> Pb_relation.Relation.t
(** Raises [Failure] naming the missing table. *)

val drop : t -> string -> unit
(** Also forgets the table's index declarations. *)

val table_names : t -> string list
(** Sorted. *)

val create_index : t -> table:string -> column:string -> unit
(** Declare an index (idempotent). Raises [Failure] if the table or
    column does not exist. *)

val indexed_columns : t -> string -> string list
(** Declared index columns of a table (possibly not yet built). *)

val get_index : t -> table:string -> column:string -> Index.t option
(** The index, building and caching it on demand; [None] when not
    declared or the table is missing. *)

val columnar : t -> string -> Pb_relation.Relation.t -> Pb_store.Table.t
(** [columnar db name rel] is the columnar image of table [name]'s
    snapshot [rel]: cached when it was encoded from the same physical row
    store (a {!Pb_relation.Relation.rename} of the stored relation still
    hits), rebuilt from [rel] otherwise. Built under the catalog lock and
    dropped whenever the relation is replaced or dropped. Maintains the
    [pb_store_bytes_resident] gauge. *)

val columnar_cached :
  t -> string -> Pb_relation.Relation.t -> Pb_store.Table.t option
(** The cached columnar image for exactly this snapshot — never triggers
    a build (used by {!Persist} to stream from columns when they are
    already resident). *)

type derived = ..
(** A value computed from one table snapshot by a layer above the
    catalog, which extends this type with its own constructor (the
    SketchRefine partitioning in [Pb_core]). *)

val derived : t -> string -> Pb_relation.Relation.t -> derived option
(** [derived db name rel] is table [name]'s derived value when it was
    computed from the same physical row store as [rel] (the check
    {!columnar} makes), [None] otherwise. Never computes anything. *)

val set_derived :
  t -> string -> Pb_relation.Relation.t -> derived -> bytes:int -> unit
(** [set_derived db name rel d ~bytes] installs [d] as table [name]'s one
    derived value, replacing the previous one, but only while [name]
    still stores [rel]'s row store; otherwise it does nothing (a
    concurrent write won, and [d] describes a dead snapshot). Like the
    columnar image, the slot is dropped whenever the table is replaced
    or dropped ({!put}, {!drop}, so every INSERT, UPDATE, DELETE, DROP
    and CSV load), and [bytes] count in [pb_store_bytes_resident] while
    it is held. *)

val load_csv : t -> name:string -> string -> unit
(** [load_csv db ~name path] creates table [name] from a CSV file whose
    first row is a header; column types are inferred per column from the
    parsed values (INT if all integral, else FLOAT if numeric, else BOOL,
    else TEXT; empty fields are NULL and don't constrain the type). *)
