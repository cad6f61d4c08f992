(* Differential tests for the columnar storage engine: the contract is
   bit-identical results — same rows, same order, same Int/Float tags —
   between PB_STORE=row (the interpreter oracle) and PB_STORE=columnar
   (Pb_store tables + batch kernels) on the same SQL, plus exact
   roundtrips through Table.of_relation and Persist.save_dir. Instances
   are drawn from a small row pool so duplicate tuples (multiplicity
   compression), NULLs in every column type, NaN floats and dictionary
   strings all show up with high probability. *)

module Gen = QCheck.Gen
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Mode = Pb_store.Mode
module Table = Pb_store.Table
module Database = Pb_sql.Database
module Executor = Pb_sql.Executor
module Coeffs = Pb_core.Coeffs

let with_mode mode f =
  let saved = Mode.current () in
  Mode.set mode;
  Fun.protect ~finally:(fun () -> Mode.set saved) f

(* %h renders floats exactly (hex), so 0. vs -0. and NaN survive the
   trip into a comparison string; the leading tag letter catches a
   kernel returning Float where the interpreter returns Int. *)
let value_repr = function
  | Value.Null -> "NULL"
  | Value.Int i -> Printf.sprintf "I%d" i
  | Value.Float f -> Printf.sprintf "F%h" f
  | Value.Bool b -> Printf.sprintf "B%b" b
  | Value.Str s -> Printf.sprintf "S%S" s

let row_repr row =
  String.concat "|" (List.map value_repr (Array.to_list row))

let rel_repr rel =
  let header =
    String.concat "|"
      (List.map
         (fun { Schema.name; ty } ->
           name ^ ":" ^ (match ty with
                        | Value.T_int -> "i"
                        | Value.T_float -> "f"
                        | Value.T_bool -> "b"
                        | Value.T_str -> "s"))
         (Schema.columns (Relation.schema rel)))
  in
  String.concat "\n" (header :: List.map row_repr (Relation.to_list rel))

let result_repr = function
  | Executor.Rows rel -> rel_repr rel
  | Executor.Affected n -> Printf.sprintf "affected %d" n
  | Executor.Created -> "created"

(* ------------------------------------------------------------------ *)
(* Random instances: rows over (v INT, f FLOAT, s TEXT, b BOOL), each
   picked from a pool of at most six distinct tuples.                  *)

let schema =
  Schema.make
    [
      { Schema.name = "v"; ty = Value.T_int };
      { Schema.name = "f"; ty = Value.T_float };
      { Schema.name = "s"; ty = Value.T_str };
      { Schema.name = "b"; ty = Value.T_bool };
    ]

let cell_int =
  Gen.oneof
    [
      Gen.return Value.Null;
      Gen.map (fun i -> Value.Int i) (Gen.int_range (-2) 6);
    ]

let cell_float =
  Gen.oneof
    [
      Gen.return Value.Null;
      Gen.map
        (fun f -> Value.Float f)
        (Gen.oneofl [ 0.0; -0.0; 1.5; -2.25; 3.75; Float.nan ]);
    ]

let cell_str =
  Gen.oneof
    [
      Gen.return Value.Null;
      Gen.map
        (fun s -> Value.Str s)
        (Gen.oneofl [ "aa"; "ab"; "ba"; ""; "NULL"; "a,b" ]);
    ]

let cell_bool =
  Gen.oneof
    [ Gen.return Value.Null; Gen.map (fun b -> Value.Bool b) Gen.bool ]

let tuple_gen =
  Gen.map
    (fun (v, f, s, b) -> [| v; f; s; b |])
    (Gen.quad cell_int cell_float cell_str cell_bool)

type inst = { rows : Value.t array list }

let inst_gen =
  let open Gen in
  let* pool_n = int_range 1 6 in
  let* pool = list_repeat pool_n tuple_gen in
  let* n = int_range 0 30 in
  let* rows = list_repeat n (oneofl pool) in
  return { rows }

let print_inst i =
  String.concat " ; " (List.map row_repr i.rows)

(* Every statement below must behave identically in both modes — DML
   included, since updates invalidate the columnar image and the next
   scan rebuilds it. Statements the batch compiler bails on (e.g. the
   self-join) are equally part of the contract: bail means "fall back to
   the row path", never "answer differently". *)
let statements =
  [
    "SELECT * FROM t";
    "SELECT s, v FROM t WHERE v > 2";
    "SELECT * FROM t WHERE f < 1.0 OR v IS NULL";
    "SELECT * FROM t WHERE s LIKE '%a%'";
    "SELECT * FROM t WHERE s = 'aa' AND b = TRUE";
    "SELECT * FROM t WHERE v IN (1, 2, 5) OR s IN ('ba', 'NULL')";
    "SELECT * FROM t WHERE v BETWEEN 0 AND 4";
    "SELECT * FROM t WHERE NOT (v <= 3)";
    "SELECT v * 2 + 1, f / 2.0, v - f, -v FROM t";
    "SELECT length(s), upper(s), abs(v), round(f) FROM t WHERE v IS NOT NULL";
    "SELECT s, COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM t GROUP BY s \
     ORDER BY s";
    "SELECT COUNT(*), SUM(f), SUM(v) FROM t";
    "SELECT * FROM t WHERE v = f";
    "SELECT * FROM t ORDER BY v, f, s, b LIMIT 4 OFFSET 1";
    "SELECT a.v, b.v FROM t a, t b WHERE a.v < b.v ORDER BY a.v, b.v";
    "UPDATE t SET v = v + 1 WHERE v > 1";
    "SELECT * FROM t";
    "UPDATE t SET s = 'zz' WHERE f IS NULL";
    "DELETE FROM t WHERE v IN (3, 4)";
    "SELECT * FROM t";
  ]

let run_session mode rows =
  with_mode mode (fun () ->
      let db = Database.create () in
      Database.put db "t" (Relation.create schema rows);
      List.map
        (fun sql ->
          match Executor.execute_sql db sql with
          | r -> result_repr r
          | exception Executor.Eval_error msg -> "error " ^ msg)
        statements)

let prop_differential =
  QCheck.Test.make ~count:150 ~name:"columnar session == row session"
    (QCheck.make ~print:print_inst inst_gen)
    (fun i ->
      let row_out = run_session Mode.Row i.rows in
      let col_out = run_session Mode.Columnar i.rows in
      List.iter2
        (fun (sql, r) c ->
          if r <> c then
            QCheck.Test.fail_reportf "on %s\nrow:\n%s\ncolumnar:\n%s" sql r c)
        (List.combine statements row_out)
        col_out;
      true)

(* Table roundtrip: of_relation must compress duplicates yet to_relation
   must replay the original rows exactly, order included. *)
let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Table.of_relation/to_relation roundtrip"
    (QCheck.make ~print:print_inst inst_gen)
    (fun i ->
      let rel = Relation.create schema i.rows in
      let tbl = Table.of_relation rel in
      let n = List.length i.rows in
      if Table.total tbl <> n then
        QCheck.Test.fail_reportf "total %d <> %d rows" (Table.total tbl) n;
      let mult_sum = ref 0 in
      for id = 0 to Table.distinct tbl - 1 do
        let m = Table.multiplicity tbl id in
        if m < 1 then QCheck.Test.fail_reportf "multiplicity %d for id %d" m id;
        mult_sum := !mult_sum + m
      done;
      if !mult_sum <> n then
        QCheck.Test.fail_reportf "multiplicities sum to %d <> %d" !mult_sum n;
      let back = rel_repr (Table.to_relation tbl) in
      let orig = rel_repr rel in
      if back <> orig then
        QCheck.Test.fail_reportf "roundtrip mismatch\norig:\n%s\nback:\n%s"
          orig back;
      true)

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests.                                           *)

let dup_rows =
  [
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
    (* No empty string here: the CSV persist format cannot distinguish
       TEXT '' from NULL on reload (an orthogonal, mode-independent
       limitation), and this fixture also feeds the persist roundtrip. *)
    [| Value.Null; Value.Float Float.nan; Value.Str "oat"; Value.Null |];
    [| Value.Int 4; Value.Null; Value.Null; Value.Bool false |];
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
  ]

let test_compression () =
  let tbl = Table.of_relation (Relation.create schema dup_rows) in
  Alcotest.(check bool) "compressed" true (Table.compressed tbl);
  Alcotest.(check int) "total" 6 (Table.total tbl);
  Alcotest.(check int) "distinct" 3 (Table.distinct tbl);
  Alcotest.(check bool) "order present" true (Table.order tbl <> None);
  Alcotest.(check string) "rows replayed in insertion order"
    (rel_repr (Relation.create schema dup_rows))
    (rel_repr (Table.to_relation tbl))

let test_uncompressed () =
  let rows =
    List.init 5 (fun i ->
        [| Value.Int i; Value.Float (float_of_int i); Value.Str "x";
           Value.Bool (i mod 2 = 0) |])
  in
  let tbl = Table.of_relation (Relation.create schema rows) in
  Alcotest.(check bool) "not compressed" false (Table.compressed tbl);
  Alcotest.(check int) "distinct = total" (Table.total tbl)
    (Table.distinct tbl);
  Alcotest.(check string) "identity roundtrip"
    (rel_repr (Relation.create schema rows))
    (rel_repr (Table.to_relation tbl))

(* save_dir streams through the columnar image when one is resident; the
   bytes on disk must not depend on the storage mode, and a reload must
   reproduce the relation exactly. *)
let test_persist_mode_independent () =
  let mk () =
    let db = Database.create () in
    Database.put db "pantry" (Relation.create schema dup_rows);
    db
  in
  let tmp suffix =
    let dir = Filename.temp_file "pb_columnar" suffix in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    dir
  in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let dir_row = tmp "_row" and dir_col = tmp "_col" in
  with_mode Mode.Row (fun () -> Pb_sql.Persist.save_dir (mk ()) dir_row);
  with_mode Mode.Columnar (fun () ->
      let db = mk () in
      (* Warm the columnar cache so save_dir takes the compressed path. *)
      ignore (Executor.execute_sql db "SELECT COUNT(*) FROM pantry");
      Pb_sql.Persist.save_dir db dir_col);
  Alcotest.(check string) "CSV bytes identical across modes"
    (read_file (Filename.concat dir_row "pantry.csv"))
    (read_file (Filename.concat dir_col "pantry.csv"));
  let loaded = Pb_sql.Persist.load_dir dir_col in
  Alcotest.(check string) "reload reproduces the relation"
    (rel_repr (Relation.create schema dup_rows))
    (rel_repr (Database.find_exn loaded "pantry"));
  List.iter
    (fun dir ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    [ dir_row; dir_col ]

(* A duplicate-heavy recipes table: every row stored three times, each
   copy its own array, interleaved so the image is compressed and its
   position -> id map is not the identity. *)
let dup_recipes () =
  let recipes = Pb_workload.Workload.recipes ~seed:7 ~n:24 () in
  let base = Relation.rows recipes in
  let n = Array.length base in
  Relation.create (Relation.schema recipes)
    (List.init (3 * n) (fun p -> Array.copy base.(p mod n)))

(* [a] and [b] hold the very same row arrays, in order. *)
let same_rows a b =
  Array.length a = Array.length b && Array.for_all2 ( == ) a b

(* PaQL coefficient extraction: candidate relation, linearized formula
   and objective vectors must be bit-identical whichever engine filtered
   the base table, and the columnar candidates must be the stored rows
   themselves (the row path shares them through Relation.rename/filter),
   never rows rebuilt from the image. *)
let test_coeffs_parity () =
  let query where =
    "SELECT PACKAGE(R) AS P FROM recipes R " ^ where
    ^ " SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
       MAXIMIZE SUM(P.protein)"
  in
  let db = Database.create () in
  Database.put db "recipes" (dup_recipes ());
  let stored = Relation.rows (Database.find_exn db "recipes") in
  let total = Array.length stored in
  Alcotest.(check bool) "image compressed" true
    (Table.compressed
       (Database.columnar db "recipes" (Database.find_exn db "recipes")));
  List.iter
    (fun (label, where, n_ok) ->
      let q = Pb_paql.Parser.parse (query where) in
      let coeffs mode = with_mode mode (fun () -> Coeffs.make db q) in
      let row = coeffs Mode.Row and col = coeffs Mode.Columnar in
      let check_bool what = Alcotest.(check bool) (label ^ ": " ^ what) in
      Alcotest.(check string) (label ^ ": candidates identical")
        (rel_repr row.Coeffs.candidates)
        (rel_repr col.Coeffs.candidates);
      Alcotest.(check int) (label ^ ": n") row.Coeffs.n col.Coeffs.n;
      check_bool "candidate count" true (n_ok col.Coeffs.n);
      Alcotest.(check int) (label ^ ": max_mult") row.Coeffs.max_mult
        col.Coeffs.max_mult;
      check_bool "formula identical" true
        (row.Coeffs.formula = col.Coeffs.formula);
      check_bool "objective identical" true
        (row.Coeffs.objective = col.Coeffs.objective);
      let col_rows = Relation.rows col.Coeffs.candidates in
      check_bool "columnar candidates are the stored rows" true
        (same_rows (Relation.rows row.Coeffs.candidates) col_rows);
      (match col.Coeffs.batch with
      | None -> Alcotest.fail (label ^ ": columnar path not taken")
      | Some b ->
          let at_positions =
            Array.map (fun pos -> stored.(pos)) b.Pb_paql.Semantics.positions
          in
          check_bool "candidate i is stored row positions.(i)" true
            (same_rows col_rows at_positions));
      check_bool "whole table shares the row store" (col.Coeffs.n = total)
        (col_rows == stored))
    [
      ("no WHERE", "", fun n -> n = total);
      ("selective WHERE", "WHERE R.gluten = 'free'", fun n -> n > 0 && n < total);
      ("empty WHERE", "WHERE R.calories < 0", fun n -> n = 0);
    ]

(* Columnar SQL paths return the stored rows too: a scan's survivors and
   the rows a DELETE keeps are the stored arrays at their positions. *)
let test_columnar_rows_shared () =
  with_mode Mode.Columnar (fun () ->
      let db = Database.create () in
      Database.put db "recipes" (dup_recipes ());
      let rel = Database.find_exn db "recipes" in
      let gi = Schema.index_of_exn (Relation.schema rel) "gluten" in
      let free r = r.(gi) = Value.Str "free" in
      let pred = Pb_sql.Parser.parse_expr "gluten = 'free'" in
      (match Pb_sql.Columnar.scan db ~name:"recipes" rel [ pred ] with
      | None -> Alcotest.fail "columnar scan not taken"
      | Some out ->
          Alcotest.(check bool) "scan survivors are the stored rows" true
            (same_rows
               (Relation.rows (Relation.filter free rel))
               (Relation.rows out)));
      ignore
        (Executor.execute_sql db "DELETE FROM recipes WHERE gluten = 'free'");
      Alcotest.(check bool) "DELETE keeps the stored rows" true
        (same_rows
           (Relation.rows (Relation.filter (fun r -> not (free r)) rel))
           (Relation.rows (Database.find_exn db "recipes"))))

let suite =
  [
    Alcotest.test_case "multiplicity compression" `Quick test_compression;
    Alcotest.test_case "distinct rows stay uncompressed" `Quick
      test_uncompressed;
    Alcotest.test_case "persist is mode-independent" `Quick
      test_persist_mode_independent;
    Alcotest.test_case "coeffs parity row vs columnar" `Quick
      test_coeffs_parity;
    Alcotest.test_case "columnar scan and delete share stored rows" `Quick
      test_columnar_rows_shared;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip; prop_differential ]
