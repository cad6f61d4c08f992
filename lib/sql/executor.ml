open Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Pool = Pb_par.Pool
module Gov = Pb_util.Gov

(* Sampled governance poll for executor loops (projection, group-by,
   distinct); a stop raises {!Gov.Interrupted}. *)
let poll gov i =
  if i land 255 = 0 then Gov.tick_opt ~resource:Gov.Sql_rows gov

let m_selects =
  Metrics.counter ~help:"SELECT blocks evaluated (subqueries included)"
    "pb_sql_selects_total"

let m_rows_returned =
  Metrics.counter ~help:"Rows returned by SELECT blocks"
    "pb_sql_rows_returned_total"

(* The scalar kernel (LIKE matcher, scalar functions, binop dispatch) lives
   in [Compile] so the interpreter below and the compiled closures share one
   implementation; re-exported here for existing callers. *)
exception Eval_error = Compile.Eval_error

type result = Rows of Relation.t | Affected of int | Created

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt
let like_match = Compile.like_match
let scalar_function = Compile.scalar_function
let binop_value = Compile.binop_value

(* The one tree-walking interpreter: the compiled closures' oracle, their
   subquery fallback, and the group evaluator. Mutually recursive with
   [select] because of IN/EXISTS subqueries; [gov] rides along so
   subquery evaluation inherits the request's governance token. [group]
   is read only by [Agg] nodes: over a group, [row] is its representative
   and aggregates reduce the whole group. *)
let rec eval ?db ?gov ?group schema row e =
  let ev e = eval ?db ?gov ?group schema row e in
  match e with
  | Lit v -> v
  | Col name -> row.(Schema.index_of_exn schema name)
  | Unary_minus e -> Value.neg (ev e)
  | Not e -> Value.logical_not (ev e)
  | Binop (op, a, b) -> binop_value op (ev a) (ev b)
  | Between (e, lo, hi) ->
      let v = ev e in
      Value.logical_and
        (Value.cmp_bool (fun c -> c >= 0) v (ev lo))
        (Value.cmp_bool (fun c -> c <= 0) v (ev hi))
  | In_list (e, items, neg) ->
      let v = ev e in
      let hit = List.exists (fun it -> Value.equal v (ev it)) items in
      Value.Bool (if neg then not hit else hit)
  | In_query (e, q, neg) -> (
      match db with
      | None -> err "IN subquery requires a database context"
      | Some db ->
          let v = ev e in
          let sub = select ?gov db q in
          if Relation.cardinality sub > 0 && Schema.arity (Relation.schema sub) <> 1
          then err "IN subquery must return one column"
          else
            let hit =
              Array.exists (fun r -> Value.equal v r.(0)) (Relation.rows sub)
            in
            Value.Bool (if neg then not hit else hit))
  | Exists q -> (
      match db with
      | None -> err "EXISTS subquery requires a database context"
      | Some db -> Value.Bool (Relation.cardinality (select ?gov db q) > 0))
  | Is_null (e, neg) ->
      let null = Value.is_null (ev e) in
      Value.Bool (if neg then not null else null)
  | Like (e, pattern, neg) -> (
      match ev e with
      | Value.Null -> Value.Null
      | Value.Str s ->
          let hit = like_match ~pattern s in
          Value.Bool (if neg then not hit else hit)
      | v -> err "LIKE on non-string value %s" (Value.to_string v))
  | Agg (f, arg) -> (
      match group with
      | None -> err "aggregate %s outside GROUP context" (agg_to_string f)
      | Some group -> aggregate ?db ?gov schema group f arg)
  | Func (name, args) -> scalar_function name (List.map ev args)
  | Case (branches, default) ->
      let rec walk = function
        | [] -> ( match default with Some e -> ev e | None -> Value.Null)
        | (cond, value) :: rest ->
            if Value.truthy (ev cond) then ev value else walk rest
      in
      walk branches

(* Aggregate arguments are evaluated row by row, without the group, so a
   nested aggregate is an error. *)
and aggregate ?db ?gov schema group f arg =
  match (f, arg) with
  | Count_star, _ -> Value.Int (List.length group)
  | f, None -> err "%s requires an argument" (agg_to_string f)
  | f, Some arg -> (
      let values =
        List.filter_map
          (fun r ->
            let v = eval ?db ?gov schema r arg in
            if Value.is_null v then None else Some v)
          group
      in
      match (f, values) with
      | Count, vs -> Value.Int (List.length vs)
      | Count_star, _ -> Value.Int (List.length group)
      | _, [] -> Value.Null
      | Sum, vs ->
          let all_int = List.for_all (function Value.Int _ -> true | _ -> false) vs in
          if all_int then
            Value.Int
              (List.fold_left
                 (fun acc v -> acc + Option.get (Value.to_int v))
                 0 vs)
          else
            Value.Float
              (List.fold_left
                 (fun acc v ->
                   match Value.to_float v with
                   | Some x -> acc +. x
                   | None -> err "SUM over non-numeric value")
                 0.0 vs)
      | Avg, vs ->
          let total =
            List.fold_left
              (fun acc v ->
                match Value.to_float v with
                | Some x -> acc +. x
                | None -> err "AVG over non-numeric value")
              0.0 vs
          in
          Value.Float (total /. float_of_int (List.length vs))
      | Min, v :: vs ->
          List.fold_left (fun a b -> if Value.compare_values b a < 0 then b else a) v vs
      | Max, v :: vs ->
          List.fold_left (fun a b -> if Value.compare_values b a > 0 then b else a) v vs)

and eval_agg_expr ?db ?gov schema group e =
  let representative =
    match group with
    | r :: _ -> r
    | [] -> Array.make (Schema.arity schema) Value.Null
  in
  eval ?db ?gov ~group schema representative e

and select ?memo ?gov db q =
  let base = select_simple ?memo ?gov db q in
  (* Set operations, applied left to right over the first branch. *)
  List.fold_left
    (fun acc (op, rhs) -> set_operation op acc (select_simple ?memo ?gov db rhs))
    base q.compound

(* Compile one row-local expression, through the prepared-plan memo when the
   statement came from the cache. The fallback closes over [db] and [gov]
   so subquery nodes re-enter the interpreter with the request's context;
   the memo never caches such closures. *)
and compile_row ?db ?gov ?memo schema e =
  let fallback row e = eval ?db ?gov schema row e in
  match memo with
  | Some m -> Compile.Memo.expr m ~fallback schema e
  | None -> Compile.expr ~fallback schema e

(* Key used for duplicate detection in DISTINCT and set operations:
   numerics normalize (3 = 3.0), types otherwise separate so Int 1 and
   Str "1" stay distinct. *)
and dedup_key row =
  let cell v =
    match (v : Value.t) with
    | Value.Null -> "0"
    | Value.Bool b -> "b" ^ string_of_bool b
    | Value.Int i -> "n" ^ string_of_float (float_of_int i)
    | Value.Float f -> "n" ^ string_of_float f
    | Value.Str s -> "s" ^ s
  in
  String.concat "\x00" (Array.to_list (Array.map cell row))

and set_operation op left right =
  if Schema.arity (Relation.schema left) <> Schema.arity (Relation.schema right)
  then err "set operation over results of different arity";
  let keys_of rel =
    let tbl = Hashtbl.create 64 in
    Array.iter (fun row -> Hashtbl.replace tbl (dedup_key row) ()) (Relation.rows rel);
    tbl
  in
  let dedup rows =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun row ->
        let k = dedup_key row in
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.add seen k ();
          true))
      rows
  in
  let schema = Relation.schema left in
  match op with
  | Union_all ->
      Relation.create schema (Relation.to_list left @ Relation.to_list right)
  | Union ->
      Relation.create schema
        (dedup (Relation.to_list left @ Relation.to_list right))
  | Intersect ->
      let right_keys = keys_of right in
      Relation.create schema
        (dedup
           (List.filter
              (fun row -> Hashtbl.mem right_keys (dedup_key row))
              (Relation.to_list left)))
  | Except ->
      let right_keys = keys_of right in
      Relation.create schema
        (dedup
           (List.filter
              (fun row -> not (Hashtbl.mem right_keys (dedup_key row)))
              (Relation.to_list left)))

and select_simple ?memo ?gov db q =
  Trace.with_span ~name:"sql.select" (fun () ->
  Metrics.incr m_selects;
  match Columnar.try_select ?gov db q with
  | Some rel ->
      (* The columnar engine answered the whole block; result-side
         accounting matches the row path below. *)
      let rows_out = Relation.cardinality rel in
      (match gov with Some g -> Gov.spend g Gov.Sql_rows rows_out | None -> ());
      Metrics.incr ~by:rows_out m_rows_returned;
      Trace.add_count "rows_out" rows_out;
      rel
  | None ->
  let filtered, _plan_stats =
    try
      Planner.execute ?gov db ~compile:(compile_row ~db ?gov ?memo)
        ~from:q.from ~where:q.where
    with Failure msg -> err "%s" msg
  in
  let schema = Relation.schema filtered in
  let items = Shape.expand_items schema q.items in
  let grouped_mode = Shape.grouped q items in
  let out_schema = Shape.output_schema schema items in
  (* Each output row keeps its provenance (source row or group) so that
     ORDER BY can reference source expressions that were not projected. *)
  let pairs =
    if not grouped_mode then begin
      (* Projection items are compiled once; the closures are pure reads of
         the row array, so they are shared across pool worker domains. *)
      let item_fns =
        List.map
          (function
            | Expr_item (e, _) -> compile_row ~db ?gov ?memo schema e
            | Star_item -> assert false)
          items
      in
      let project row =
        (Array.of_list (List.map (fun f -> f row) item_fns), `Row row)
      in
      (* Projection over large inputs is chunked across the domain pool;
         chunk outputs concatenate in order, so the row order (and any
         evaluation error raised) is identical to the sequential map. *)
      let rows = Relation.rows filtered in
      let n = Array.length rows in
      let pool = Pool.get_default () in
      if Pool.size pool > 1 && n >= 512 then
        List.concat
          (Pool.map_chunks pool ~n (fun ~lo ~hi ->
               List.init (hi - lo) (fun k ->
                   poll gov k;
                   project rows.(lo + k))))
      else
        List.mapi
          (fun i row ->
            poll gov i;
            project row)
          (Relation.to_list filtered)
    end
    else begin
      Trace.with_span ~name:"sql.group" (fun () ->
      (* Group rows by the GROUP BY key (single group when absent). *)
      let key_fns = List.map (compile_row ~db ?gov ?memo schema) q.group_by in
      let tbl = Hashtbl.create 64 in
      let order = ref [] in
      let seen_rows = ref 0 in
      List.iter
        (fun row ->
          poll gov !seen_rows;
          incr seen_rows;
          let key = List.map (fun f -> Value.to_string (f row)) key_fns in
          (match Hashtbl.find_opt tbl key with
          | Some cell -> cell := row :: !cell
          | None ->
              Hashtbl.add tbl key (ref [ row ]);
              order := key :: !order))
        (Relation.to_list filtered);
      let groups =
        if q.group_by = [] then
          [ List.rev (match Hashtbl.find_opt tbl [] with Some c -> !c | None -> []) ]
        else
          List.rev_map (fun key -> List.rev !(Hashtbl.find tbl key)) !order
      in
      let groups =
        (* An empty input with no GROUP BY still yields one (empty) group,
           so that a bare SELECT COUNT of everything returns 0. *)
        if q.group_by = [] then groups else List.filter (fun g -> g <> []) groups
      in
      List.filter_map
        (fun group ->
          Gov.tick_opt ~resource:Gov.Sql_rows gov;
          let keep =
            match q.having with
            | None -> true
            | Some pred ->
                Value.truthy (eval_agg_expr ~db ?gov schema group pred)
          in
          if not keep then None
          else
            Some
              ( Array.of_list
                  (List.map
                     (function
                       | Expr_item (e, _) -> eval_agg_expr ~db ?gov schema group e
                       | Star_item -> assert false)
                     items),
                `Group group ))
        groups)
    end
  in
  let pairs =
    if not q.distinct then pairs
    else begin
      let seen = Hashtbl.create 64 in
      let i = ref 0 in
      List.filter
        (fun (row, _) ->
          poll gov !i;
          incr i;
          let key = dedup_key row in
          if Hashtbl.mem seen key then false
          else (
            Hashtbl.add seen key ();
            true))
        pairs
    end
  in
  let pairs =
    match q.order_by with
    | [] -> pairs
    | keys ->
        (* ORDER BY may reference output columns (by alias), or any source
           expression — including ones that were not projected — which is
           resolved against the row's provenance. Source-side keys are
           compiled once instead of per comparison; grouped rows keep the
           aggregate-aware interpreter. *)
        let key_plans =
          List.map
            (fun (e, dir) ->
              let plan =
                match e with
                | Col name when Schema.index_of out_schema name <> None ->
                    `Out (Schema.index_of_exn out_schema name)
                | _ -> `Src (compile_row ~db ?gov ?memo schema e, e)
              in
              (plan, dir))
            keys
        in
        let key_value (out_row, provenance) plan =
          match plan with
          | `Out i -> out_row.(i)
          | `Src (f, e) -> (
              match provenance with
              | `Row src -> f src
              | `Group group -> eval_agg_expr ~db ?gov schema group e)
        in
        let cmp a b =
          let rec walk = function
            | [] -> 0
            | (plan, dir) :: rest ->
                let c = Value.compare_values (key_value a plan) (key_value b plan) in
                let c = match dir with Asc -> c | Desc -> -c in
                if c <> 0 then c else walk rest
          in
          walk key_plans
        in
        Trace.with_span ~name:"sql.sort" (fun () ->
            List.stable_sort cmp pairs)
  in
  let pairs =
    match q.offset with
    | None -> pairs
    | Some skip -> List.filteri (fun i _ -> i >= skip) pairs
  in
  let pairs =
    match q.limit with
    | None -> pairs
    | Some k -> List.filteri (fun i _ -> i < k) pairs
  in
  let rows_out = List.length pairs in
  (match gov with Some g -> Gov.spend g Gov.Sql_rows rows_out | None -> ());
  Metrics.incr ~by:rows_out m_rows_returned;
  Trace.add_count "rows_out" rows_out;
  Relation.create out_schema (List.map fst pairs))

let eval_expr ?db ?gov schema row e = eval ?db ?gov schema row e
let eval_const ?db e = eval ?db (Schema.make []) [||] e
let compile_expr ?db ?gov schema e = compile_row ?db ?gov schema e

let execute ?memo ?gov db stmt =
  match stmt with
  | Select_stmt q -> Rows (select ?memo ?gov db q)
  | Create_table (name, defs) ->
      let schema =
        Schema.make
          (List.map (fun d -> { Schema.name = d.col_name; ty = d.col_ty }) defs)
      in
      Database.put db name (Relation.empty schema);
      Created
  | Insert (name, cols, rows) ->
      let rel = Database.find_exn db name in
      let schema = Relation.schema rel in
      let build row_exprs =
        let values = List.map (fun e -> eval_const ~db e) row_exprs in
        match cols with
        | None ->
            if List.length values <> Schema.arity schema then
              err "INSERT arity mismatch";
            Array.of_list values
        | Some names ->
            if List.length names <> List.length values then
              err "INSERT column/value count mismatch";
            let out = Array.make (Schema.arity schema) Value.Null in
            List.iter2
              (fun n v -> out.(Schema.index_of_exn schema n) <- v)
              names values;
            out
      in
      let new_rows = List.map build rows in
      Database.put db name (Relation.append rel new_rows);
      Affected (List.length new_rows)
  | Delete (name, where) -> (
      let rel = Database.find_exn db name in
      let schema = Relation.schema rel in
      let columnar =
        match where with
        | Some pred -> Columnar.delete_keep ?gov db ~name rel pred
        | None -> None
      in
      match columnar with
      | Some (kept, affected) ->
          Database.put db name kept;
          Affected affected
      | None ->
          let keep =
            match where with
            | None -> fun _row -> false
            | Some pred ->
                let f = compile_row ~db ?gov schema pred in
                fun row -> not (Value.truthy (f row))
          in
          let kept = Relation.filter keep rel in
          Database.put db name kept;
          Affected (Relation.cardinality rel - Relation.cardinality kept))
  | Update (name, sets, where) ->
      let rel = Database.find_exn db name in
      let schema = Relation.schema rel in
      let count = ref 0 in
      let mask =
        match where with
        | Some pred -> Columnar.update_mask ?gov db ~name rel pred
        | None -> None
      in
      let hit_fn =
        match (mask, where) with
        | Some _, _ | None, None -> fun _row -> true
        | None, Some pred ->
            let f = compile_row ~db ?gov schema pred in
            fun row -> Value.truthy (f row)
      in
      let set_fns =
        List.map (fun (col, e) -> (col, compile_row ~db ?gov schema e)) sets
      in
      (* [pos] tracks the row position so a columnar-computed WHERE mask
         can stand in for the per-row predicate. *)
      let pos = ref (-1) in
      let update row =
        incr pos;
        let hit =
          match mask with
          | Some m -> Bytes.get m !pos = '\001'
          | None -> hit_fn row
        in
        if not hit then row
        else begin
          incr count;
          let out = Array.copy row in
          List.iter
            (fun (col, f) -> out.(Schema.index_of_exn schema col) <- f row)
            set_fns;
          out
        end
      in
      Database.put db name (Relation.map_rows schema update rel);
      Affected !count
  | Create_index { table; column } ->
      (try Database.create_index db ~table ~column
       with Failure msg -> err "%s" msg);
      Created
  | Drop_table name ->
      Database.drop db name;
      Created

let execute_sql ?gov db src = execute ?gov db (Parser.parse_statement src)
