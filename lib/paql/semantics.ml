module Relation = Pb_relation.Relation
module Value = Pb_relation.Value
module Executor = Pb_sql.Executor
module Table = Pb_store.Table

(* Candidates in columnar form: the input table's image plus, per
   candidate, its distinct-row id (what PaQL coefficient extraction feeds
   batch kernels instead of interpreting tuples) and its original row
   position in the stored relation the image was encoded from. *)
type batch = {
  table : Table.t;
  relation : Relation.t;  (* the stored relation, input-alias-qualified *)
  ids : int array;  (* candidate index -> distinct row id *)
  positions : int array;  (* candidate index -> original row position *)
}

let candidates_batch db (q : Ast.t) =
  if not (Pb_store.Mode.columnar ()) then None
  else
    match Pb_sql.Database.find db q.input_relation with
    | None -> None (* let [candidates] raise its usual error *)
    | Some rel -> (
        (* [Database.columnar] returns an image of exactly [rel]'s row
           store, so image position [pos] is row [pos] of [rel]. *)
        let table = Pb_sql.Database.columnar db q.input_relation rel in
        let relation = Relation.rename q.input_alias rel in
        let hit =
          match q.where with
          | None -> Some (fun _ -> true)
          | Some pred -> (
              match
                Pb_sql.Columnar.bool_kernel (Relation.schema relation) table
                  pred
              with
              | Some k ->
                  let sel = Pb_sql.Columnar.selection table k in
                  Some (fun id -> Bytes.get sel id = '\001')
              | None -> None)
        in
        match hit with
        | None -> None
        | Some hit ->
            let positions = Pb_sql.Columnar.positions_where table hit in
            let ids =
              match Table.order table with
              | None -> positions
              | Some ord -> Array.map (Array.get ord) positions
            in
            Some { table; relation; ids; positions })

let batch_candidates b =
  if Array.length b.positions = Relation.cardinality b.relation then
    b.relation
  else Relation.pick b.relation b.positions

let batch_values b ~schema expr =
  match Pb_sql.Batch.compile schema b.table expr with
  | None -> None
  | Some k -> (
      let module B = Pb_sql.Batch in
      match k.B.kind with
      | B.K_str ->
          (* The row path warns per non-numeric tuple before substituting
             0; keep that diagnostic by falling back. *)
          None
      | B.K_num | B.K_bool ->
          let n = Table.distinct b.table in
          let vals = Array.make n 0.0 in
          let lo = ref 0 and chunks = ref 0 in
          while !lo < n do
            let len = min B.chunk (n - !lo) in
            incr chunks;
            (match k.B.run ~lo:!lo ~len with
            | B.Num (v, nulls) ->
                (* NULL maps to 0, exactly like the row path's
                   [Value.to_float = None] substitution. *)
                for i = 0 to len - 1 do
                  if not (B.null_at nulls i) then vals.(!lo + i) <- v.(i)
                done
            | B.B3 bits ->
                for i = 0 to len - 1 do
                  if Bytes.get bits i = '\001' then vals.(!lo + i) <- 1.0
                done
            | B.Sv _ -> assert false);
            lo := !lo + len
          done;
          Table.tick_chunks !chunks;
          Some (Array.map (fun id -> vals.(id)) b.ids))

let candidates db (q : Ast.t) =
  match candidates_batch db q with
  | Some b -> batch_candidates b
  | None -> (
      let rel = Pb_sql.Database.find_exn db q.input_relation in
      let qualified = Relation.rename q.input_alias rel in
      match q.where with
      | None -> qualified
      | Some pred ->
          let schema = Relation.schema qualified in
          (* The base predicate runs once per input tuple: compile it
             (with db, for subqueries). *)
          let pred_fn = Executor.compile_expr ~db schema pred in
          Relation.filter (fun row -> Value.truthy (pred_fn row)) qualified)

let empty_package db (q : Ast.t) =
  Package.create (candidates db q) ~alias:q.package_alias

let respects_multiplicity (q : Ast.t) pkg =
  let cap = Ast.max_multiplicity q in
  List.for_all (fun i -> Package.multiplicity pkg i <= cap) (Package.support pkg)

let eval_over_package ?db (q : Ast.t) pkg expr =
  ignore q;
  let materialized = Package.materialize pkg in
  let schema = Relation.schema materialized in
  let group = Relation.to_list materialized in
  Executor.eval_agg_expr ?db schema group expr

let satisfies_global ?db (q : Ast.t) pkg =
  match q.such_that with
  | None -> true
  | Some pred -> Value.truthy (eval_over_package ?db q pkg pred)

let is_valid ?db q pkg = respects_multiplicity q pkg && satisfies_global ?db q pkg

let objective_value ?db (q : Ast.t) pkg =
  match q.objective with
  | None -> None
  | Some (_, e) -> Value.to_float (eval_over_package ?db q pkg e)

let better dir a b =
  match dir with Ast.Maximize -> a > b | Ast.Minimize -> a < b

let compare_quality (q : Ast.t) a b =
  match q.objective with
  | None -> 0
  | Some (dir, _) -> (
      match (objective_value q a, objective_value q b) with
      | None, None -> 0
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some va, Some vb ->
          if better dir va vb then 1 else if better dir vb va then -1 else 0)
