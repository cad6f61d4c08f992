module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation

(* All catalog state is guarded by [mu]: queries may run on several pool
   domains at once (chunked filters, hash-join key eval/probe, chunked
   projection), and a subquery evaluated on a worker domain can lazily
   build an index — an unsynchronized Hashtbl mutation without the lock.
   Every public operation holds the lock end to end, so a given
   (table, column) index is built at most once and lookups never observe
   a resizing table. Relations themselves are immutable, so returned
   values are safe to read without the lock. *)
type derived = ..

type t = {
  mu : Mutex.t;
  tables : (string, Relation.t) Hashtbl.t;
  declared_indexes : (string, string list ref) Hashtbl.t;  (* table -> cols *)
  index_cache : (string * string, Index.t) Hashtbl.t;
  (* Columnar image of a table, built lazily on first columnar scan and
     dropped whenever the relation is replaced (same lifecycle as the
     index cache). The row store the image was encoded from is kept
     alongside so a caller holding an older snapshot of the relation never
     gets an image of newer data (physical equality check). The global
     pb_store_bytes_resident gauge tracks the sum of cached images across
     catalogs. *)
  columnar_cache :
    (string, Value.t array array * Pb_store.Table.t) Hashtbl.t;
  (* One value derived from a table's rows by a layer above the catalog
     (SketchRefine's partitioning), with the same lifecycle as the
     columnar image: keyed by the row store it was computed from, dropped
     whenever the relation is replaced, its bytes counted in the same
     gauge. *)
  derived_cache : (string, Value.t array array * derived * int) Hashtbl.t;
  (* Schema/DDL generation: bumped when the set of tables, a table's
     schema, or the declared indexes change — NOT on schema-preserving DML
     (INSERT/DELETE/UPDATE replace the relation with one of identical
     schema), so prepared plans stay valid across data changes. The
     {!Plan_cache} compares this against the version captured at prepare
     time. *)
  version : int Atomic.t;
}

let create () =
  {
    mu = Mutex.create ();
    tables = Hashtbl.create 16;
    declared_indexes = Hashtbl.create 8;
    index_cache = Hashtbl.create 8;
    columnar_cache = Hashtbl.create 8;
    derived_cache = Hashtbl.create 8;
    version = Atomic.make 0;
  }

let version db = Atomic.get db.version

let locked db f =
  Mutex.lock db.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock db.mu) f

let normalize = String.lowercase_ascii

(* The _unlocked helpers assume [db.mu] is held (Mutex is not reentrant). *)

let invalidate_indexes_unlocked db name =
  Hashtbl.filter_map_inplace
    (fun (table, _) index -> if table = name then None else Some index)
    db.index_cache

let forget_columnar_unlocked db name =
  match Hashtbl.find_opt db.columnar_cache name with
  | None -> ()
  | Some (_, t) ->
      Hashtbl.remove db.columnar_cache name;
      Pb_store.Table.add_resident (-Pb_store.Table.bytes t)

let forget_derived_unlocked db name =
  match Hashtbl.find_opt db.derived_cache name with
  | None -> ()
  | Some (_, _, bytes) ->
      Hashtbl.remove db.derived_cache name;
      Pb_store.Table.add_resident (-bytes)

let find_unlocked db name = Hashtbl.find_opt db.tables (normalize name)

let put db name rel =
  let name = normalize name in
  locked db (fun () ->
      let schema_changed =
        match find_unlocked db name with
        | Some old -> not (Schema.equal (Relation.schema old) (Relation.schema rel))
        | None -> true
      in
      Hashtbl.replace db.tables name rel;
      invalidate_indexes_unlocked db name;
      forget_columnar_unlocked db name;
      forget_derived_unlocked db name;
      if schema_changed then Atomic.incr db.version)

let find db name = locked db (fun () -> find_unlocked db name)

let find_exn db name =
  match find db name with
  | Some r -> r
  | None -> failwith ("no such table: " ^ name)

let drop db name =
  let name = normalize name in
  locked db (fun () ->
      if Hashtbl.mem db.tables name then Atomic.incr db.version;
      Hashtbl.remove db.tables name;
      Hashtbl.remove db.declared_indexes name;
      invalidate_indexes_unlocked db name;
      forget_columnar_unlocked db name;
      forget_derived_unlocked db name)

let table_names db =
  locked db (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) db.tables []))

(* Every cached image and derived value leaves the gauge, including any
   keyed by a name the catalog never stored. *)
let with_scratch f =
  let db = create () in
  let release () =
    locked db (fun () ->
        Hashtbl.iter
          (fun _ (_, t) -> Pb_store.Table.add_resident (-Pb_store.Table.bytes t))
          db.columnar_cache;
        Hashtbl.iter
          (fun _ (_, _, bytes) -> Pb_store.Table.add_resident (-bytes))
          db.derived_cache;
        Hashtbl.reset db.columnar_cache;
        Hashtbl.reset db.derived_cache;
        Hashtbl.reset db.tables)
  in
  Fun.protect ~finally:release (fun () -> f db)

let create_index db ~table ~column =
  let table = normalize table and column = normalize column in
  locked db (fun () ->
      let rel =
        match find_unlocked db table with
        | Some r -> r
        | None -> failwith ("no such table: " ^ table)
      in
      if Schema.index_of (Relation.schema rel) column = None then
        failwith
          (Printf.sprintf "no such column %s in table %s" column table);
      let cols =
        match Hashtbl.find_opt db.declared_indexes table with
        | Some cols -> cols
        | None ->
            let cols = ref [] in
            Hashtbl.add db.declared_indexes table cols;
            cols
      in
      if not (List.mem column !cols) then begin
        cols := column :: !cols;
        (* A new index can change plan shape (index scan vs filter). *)
        Atomic.incr db.version
      end)

let indexed_columns_unlocked db table =
  match Hashtbl.find_opt db.declared_indexes (normalize table) with
  | Some cols -> !cols
  | None -> []

let indexed_columns db table =
  locked db (fun () -> indexed_columns_unlocked db table)

let get_index db ~table ~column =
  let table = normalize table and column = normalize column in
  locked db (fun () ->
      if not (List.mem column (indexed_columns_unlocked db table)) then None
      else
        match Hashtbl.find_opt db.index_cache (table, column) with
        | Some index -> Some index
        | None -> (
            match find_unlocked db table with
            | None -> None
            | Some rel ->
                let index = Index.build rel column in
                Hashtbl.add db.index_cache (table, column) index;
                Some index))

let columnar db name rel =
  let name = normalize name in
  locked db (fun () ->
      match Hashtbl.find_opt db.columnar_cache name with
      | Some (store, t) when store == Relation.rows rel -> t
      | prev ->
          (match prev with
          | Some (_, old) ->
              Pb_store.Table.add_resident (-Pb_store.Table.bytes old)
          | None -> ());
          (* Built under the catalog lock, like lazy index builds, so a
             given snapshot is encoded at most once. [rel] may carry a
             qualified (renamed) schema; only the values matter, and a
             rename shares the row store, so the physical-equality check
             above still hits for any alias of the same snapshot. *)
          let t =
            Pb_obs.Trace.with_span ~name:"store.columnar_build"
              ~attrs:
                [
                  ("table", name);
                  ("rows", string_of_int (Relation.cardinality rel));
                ]
              (fun () -> Pb_store.Table.of_relation rel)
          in
          Hashtbl.replace db.columnar_cache name (Relation.rows rel, t);
          Pb_store.Table.add_resident (Pb_store.Table.bytes t);
          t)

let columnar_cached db name rel =
  locked db (fun () ->
      match Hashtbl.find_opt db.columnar_cache (normalize name) with
      | Some (store, t) when store == Relation.rows rel -> Some t
      | _ -> None)

let derived db name rel =
  locked db (fun () ->
      match Hashtbl.find_opt db.derived_cache (normalize name) with
      | Some (store, d, _) when store == Relation.rows rel -> Some d
      | _ -> None)

let set_derived db name rel d ~bytes =
  let name = normalize name in
  locked db (fun () ->
      match find_unlocked db name with
      | Some stored when Relation.rows stored == Relation.rows rel ->
          forget_derived_unlocked db name;
          Hashtbl.replace db.derived_cache name (Relation.rows rel, d, bytes);
          Pb_store.Table.add_resident bytes
      | _ -> ())

let infer_column_ty cells =
  let non_null = List.filter (fun v -> v <> Value.Null) cells in
  if non_null = [] then Value.T_str
  else if List.for_all (function Value.Int _ -> true | _ -> false) non_null
  then Value.T_int
  else if
    List.for_all
      (function Value.Int _ | Value.Float _ -> true | _ -> false)
      non_null
  then Value.T_float
  else if List.for_all (function Value.Bool _ -> true | _ -> false) non_null
  then Value.T_bool
  else Value.T_str

let load_csv db ~name path =
  match Pb_util.Csv.parse_file path with
  | [] -> failwith ("empty CSV file: " ^ path)
  | header :: raw_rows ->
      let ncols = List.length header in
      let parse_row r =
        if List.length r <> ncols then
          failwith
            (Printf.sprintf "CSV row has %d fields, header has %d"
               (List.length r) ncols)
        else Array.of_list (List.map Value.of_literal r)
      in
      let rows = List.map parse_row raw_rows in
      let tys =
        List.mapi
          (fun i _ -> infer_column_ty (List.map (fun r -> r.(i)) rows))
          header
      in
      let as_str v =
        if v = Value.Null then Value.Null else Value.Str (Value.to_string v)
      in
      let coerce ty v =
        (* Re-read mixed columns as text so the relation is homogeneous. *)
        match ty with Value.T_str -> as_str v | _ -> v
      in
      let rows =
        List.map
          (fun r -> Array.of_list (List.map2 coerce tys (Array.to_list r)))
          rows
      in
      let schema =
        Schema.make
          (List.map2 (fun n ty -> { Schema.name = n; ty }) header tys)
      in
      put db name (Relation.create schema rows)
