(* Tests for catalog persistence and the interactive shell engine. *)

module Persist = Pb_sql.Persist
module Database = Pb_sql.Database
module Executor = Pb_sql.Executor
module Repl = Pb_shell.Repl
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let temp_dir () =
  let path = Filename.temp_file "pb_persist" "" in
  Sys.remove path;
  path

let rec remove_dir path =
  if Sys.file_exists path then begin
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_dir (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  end

(* ---- persistence ------------------------------------------------------ *)

let test_persist_roundtrip () =
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL)");
  ignore
    (Executor.execute_sql db
       "INSERT INTO t VALUES (1, 'x', 1.5, TRUE), (2, 'has,comma', 2.25, FALSE)");
  ignore (Executor.execute_sql db "INSERT INTO t (a) VALUES (3)");
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      Persist.save_dir db dir;
      let db2 = Persist.load_dir dir in
      let r1 = Database.find_exn db "t" and r2 = Database.find_exn db2 "t" in
      Alcotest.(check bool) "same schema" true
        (Schema.equal (Relation.schema r1) (Relation.schema r2));
      Alcotest.(check int) "same rows" (Relation.cardinality r1)
        (Relation.cardinality r2);
      for i = 0 to Relation.cardinality r1 - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "row %d equal" i)
          true
          (Array.for_all2 Value.equal (Relation.row r1 i) (Relation.row r2 i))
      done)

let test_persist_preserves_text_type () =
  (* A TEXT column with numeric-looking values must stay TEXT. *)
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE codes (code TEXT)");
  ignore (Executor.execute_sql db "INSERT INTO codes VALUES ('007'), ('42')");
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      Persist.save_dir db dir;
      let db2 = Persist.load_dir dir in
      let rel = Database.find_exn db2 "codes" in
      Alcotest.(check bool) "still TEXT" true
        (Schema.column_ty (Relation.schema rel) "code" = Some Value.T_str);
      Alcotest.(check bool) "leading zero kept" true
        (Value.equal (Value.Str "007") (Relation.row rel 0).(0)))

let test_persist_preserves_indexes () =
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE t (a INT)");
  ignore (Executor.execute_sql db "INSERT INTO t VALUES (1), (2)");
  ignore (Executor.execute_sql db "CREATE INDEX ON t (a)");
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      Persist.save_dir db dir;
      let db2 = Persist.load_dir dir in
      Alcotest.(check (list string)) "index declared" [ "a" ]
        (Database.indexed_columns db2 "t"))

let test_persist_empty_table () =
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE empty (a INT, b TEXT)");
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      Persist.save_dir db dir;
      let db2 = Persist.load_dir dir in
      Alcotest.(check int) "still empty" 0
        (Relation.cardinality (Database.find_exn db2 "empty")))

let test_persist_missing_manifest () =
  match Persist.load_dir "/nonexistent-dir-xyz" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure"

let test_persist_tricky_values () =
  (* String values full of CSV- and manifest-hostile characters must
     round-trip exactly through the quoting layer. *)
  let tricky =
    [ "has,comma"; "has\nnewline"; "has\ttab"; "has\"quote"; "a,b\n\"c\"" ]
  in
  let db = Database.create () in
  let schema =
    Schema.make [ { Schema.name = "id"; ty = Value.T_int };
                  { Schema.name = "s"; ty = Value.T_str } ]
  in
  let rows =
    List.mapi (fun i s -> [| Value.Int i; Value.Str s |]) tricky
  in
  Database.put db "tricky" (Relation.create schema rows);
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      Persist.save_dir db dir;
      let db2 = Persist.load_dir dir in
      let rel = Database.find_exn db2 "tricky" in
      Alcotest.(check int) "all rows" (List.length tricky)
        (Relation.cardinality rel);
      List.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "value %d round-trips" i)
            true
            (Value.equal (Value.Str s) (Relation.row rel i).(1)))
        tricky)

let test_persist_rejects_delimiter_names () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      let expect_reject label db =
        (match Persist.save_dir db dir with
        | exception Failure msg ->
            Alcotest.(check bool)
              (label ^ " message names the delimiter")
              true
              (contains msg "delimiter")
        | () -> Alcotest.fail (label ^ ": expected save_dir to fail"));
        (* rejection happens before anything is written: no manifest *)
        Alcotest.(check bool) (label ^ " wrote nothing") false
          (Sys.file_exists (Filename.concat dir "manifest.txt"))
      in
      let table_db name =
        let db = Database.create () in
        let schema = Schema.make [ { Schema.name = "a"; ty = Value.T_int } ] in
        Database.put db name (Relation.create schema [ [| Value.Int 1 |] ]);
        db
      in
      let column_db col =
        let db = Database.create () in
        let schema = Schema.make [ { Schema.name = col; ty = Value.T_int } ] in
        Database.put db "t" (Relation.create schema [ [| Value.Int 1 |] ]);
        db
      in
      expect_reject "comma table" (table_db "bad,name");
      expect_reject "tab table" (table_db "bad\tname");
      expect_reject "newline table" (table_db "bad\nname");
      expect_reject "comma column" (column_db "b,c");
      expect_reject "tab column" (column_db "b\tc");
      expect_reject "newline column" (column_db "b\nc"))

let test_persist_drops_stale_files () =
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE keepme (a INT)");
  ignore (Executor.execute_sql db "CREATE TABLE dropme (a INT)");
  ignore (Executor.execute_sql db "INSERT INTO keepme VALUES (1)");
  ignore (Executor.execute_sql db "INSERT INTO dropme VALUES (2)");
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      Persist.save_dir db dir;
      Alcotest.(check bool) "dropme.csv written" true
        (Sys.file_exists (Filename.concat dir "dropme.csv"));
      (* leave debris a crashed save could have produced *)
      let stray = Filename.concat dir "manifest.txt.tmp" in
      let oc = open_out stray in
      output_string oc "torn";
      close_out oc;
      Database.drop db "dropme";
      Persist.save_dir db dir;
      Alcotest.(check bool) "stale csv removed" false
        (Sys.file_exists (Filename.concat dir "dropme.csv"));
      Alcotest.(check bool) "stray tmp removed" false (Sys.file_exists stray);
      let db2 = Persist.load_dir dir in
      Alcotest.(check bool) "dropped table stays dropped" true
        (Database.find db2 "dropme" = None);
      Alcotest.(check bool) "live table survives" true
        (Database.find db2 "keepme" <> None))

let test_repl_dump_reports_bad_name () =
  (* \dump must report a rejected name as output, not raise. *)
  let db = Database.create () in
  let schema = Schema.make [ { Schema.name = "a"; ty = Value.T_int } ] in
  Database.put db "bad,name" (Relation.create schema [ [| Value.Int 1 |] ]);
  let st = Repl.create db in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      let r = Repl.handle st ("\\dump " ^ dir) in
      Alcotest.(check bool) "reported in output" true
        (contains r.Repl.output "dump failed"))

(* ---- repl -------------------------------------------------------------- *)

let shell () =
  let db = Pb_sql.Database.create () in
  Pb_workload.Workload.install ~seed:13 ~recipes_n:40 ~destinations:2
    ~stocks_n:20 db;
  Repl.create db

let paql_line =
  "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 2 AND SUM(P.calories) <= 1600 MAXIMIZE SUM(P.protein)"

let test_repl_help_and_quit () =
  let st = shell () in
  Alcotest.(check bool) "help text" true
    (contains (Repl.handle st "\\help").Repl.output "\\tables");
  Alcotest.(check bool) "quit" true (Repl.handle st "\\quit").Repl.quit;
  Alcotest.(check bool) "blank" true ((Repl.handle st "   ").Repl.output = "")

let test_repl_tables_and_schema () =
  let st = shell () in
  Alcotest.(check bool) "tables" true
    (contains (Repl.handle st "\\tables").Repl.output "recipes");
  Alcotest.(check bool) "schema" true
    (contains (Repl.handle st "\\schema recipes").Repl.output "calories");
  Alcotest.(check bool) "schema miss" true
    (contains (Repl.handle st "\\schema nope").Repl.output "no such table")

let test_repl_sql () =
  let st = shell () in
  let r = Repl.handle st "SELECT COUNT(*) AS n FROM recipes" in
  Alcotest.(check bool) "counts" true (contains r.Repl.output "40");
  let bad = Repl.handle st "SELECT FROM" in
  Alcotest.(check bool) "sql error reported" true
    (contains bad.Repl.output "error")

let test_repl_paql_and_save () =
  let st = shell () in
  let r = Repl.handle st paql_line in
  Alcotest.(check bool) "found objective" true (contains r.Repl.output "objective:");
  let saved = Repl.handle st "\\save lunch" in
  Alcotest.(check bool) "saved" true (contains saved.Repl.output "pkg_lunch");
  let listing = Repl.handle st "\\packages" in
  Alcotest.(check bool) "listed" true (contains listing.Repl.output "lunch");
  (* the stored table is queryable through the same session *)
  let q = Repl.handle st "SELECT COUNT(*) FROM pkg_lunch" in
  Alcotest.(check bool) "queryable" true (contains q.Repl.output "2");
  let reval = Repl.handle st "\\revalidate lunch" in
  Alcotest.(check bool) "valid" true (contains reval.Repl.output "still valid");
  let dropped = Repl.handle st "\\drop lunch" in
  Alcotest.(check bool) "dropped" true (contains dropped.Repl.output "dropped")

let test_repl_strategy () =
  let st = shell () in
  Alcotest.(check bool) "default is hybrid" true
    (contains (Repl.handle st "\\strategy").Repl.output "strategy: hybrid");
  Alcotest.(check bool) "set sketch-refine" true
    (contains (Repl.handle st "\\strategy sketch-refine").Repl.output
       "strategy set to sketch-refine");
  (* the sticky strategy drives subsequent PaQL evaluation *)
  let r = Repl.handle st paql_line in
  Alcotest.(check bool) "footer names sketch-refine" true
    (contains r.Repl.output "strategy: sketch-refine");
  Alcotest.(check bool) "query found a package" true
    (contains r.Repl.output "objective:");
  Alcotest.(check bool) "unknown strategy rejected" true
    (contains (Repl.handle st "\\strategy bogus").Repl.output
       "unknown strategy");
  Alcotest.(check bool) "bogus name did not stick" true
    (contains (Repl.handle st "\\strategy").Repl.output
       "strategy: sketch-refine");
  Alcotest.(check bool) "help lists it" true
    (contains (Repl.handle st "\\help").Repl.output "\\strategy")

let test_repl_save_without_query () =
  let st = shell () in
  Alcotest.(check bool) "nothing to save" true
    (contains (Repl.handle st "\\save x").Repl.output "nothing to save")

let test_repl_explain_and_complete () =
  let st = shell () in
  let e = Repl.handle st ("\\explain " ^ paql_line) in
  Alcotest.(check bool) "bounds shown" true
    (contains e.Repl.output "cardinality bounds");
  Alcotest.(check bool) "cost model shown" true (contains e.Repl.output "strategy");
  let c = Repl.handle st "\\complete SELECT " in
  Alcotest.(check bool) "package suggested" true
    (contains c.Repl.output "PACKAGE(")

(* \explain analyze attributes the candidate phase: a coeffs.make span
   with the candidate count and which path built it, and, on the first
   columnar touch of a table, the image build under it. *)
let test_repl_explain_analyze_spans () =
  let analyze mode =
    let saved = Pb_store.Mode.current () in
    Pb_store.Mode.set mode;
    Fun.protect
      ~finally:(fun () -> Pb_store.Mode.set saved)
      (fun () ->
        let st = shell () in
        let first = Repl.handle st ("\\explain analyze " ^ paql_line) in
        let again = Repl.handle st ("\\explain analyze " ^ paql_line) in
        (first.Repl.output, again.Repl.output))
  in
  (* Scratch tables of the local-search leg get images of their own, so
     look for a build of the stored table specifically. *)
  let builds_recipes out =
    List.exists
      (fun l -> contains l "store.columnar_build" && contains l "table=recipes")
      (String.split_on_char '\n' out)
  in
  let col, col_again = analyze Pb_store.Mode.Columnar in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("columnar output has " ^ needle) true
        (contains col needle))
    [ "coeffs.make"; "candidates="; "batch=true"; "rows=40" ];
  Alcotest.(check bool) "first touch builds the image" true
    (builds_recipes col);
  Alcotest.(check bool) "cached image is not rebuilt" false
    (builds_recipes col_again);
  Alcotest.(check bool) "second run still spans coeffs" true
    (contains col_again "coeffs.make");
  let row, _ = analyze Pb_store.Mode.Row in
  Alcotest.(check bool) "row output has coeffs.make" true
    (contains row "coeffs.make");
  Alcotest.(check bool) "row path is not batch" true
    (contains row "batch=false");
  Alcotest.(check bool) "row path builds no image" false
    (builds_recipes row)

let test_repl_next () =
  let st = shell () in
  let r = Repl.handle st ("\\next 3 " ^ paql_line) in
  Alcotest.(check bool) "ranked" true (contains r.Repl.output "#1");
  Alcotest.(check bool) "three results" true (contains r.Repl.output "#3")

let test_repl_unknown_command () =
  let st = shell () in
  Alcotest.(check bool) "unknown" true
    (contains (Repl.handle st "\\frob").Repl.output "unknown command")

let test_repl_paql_parse_error () =
  let st = shell () in
  let r = Repl.handle st "SELECT PACKAGE(R) FROM" in
  Alcotest.(check bool) "reported" true (contains r.Repl.output "paql error")

let test_repl_plan () =
  let st = shell () in
  let r =
    Repl.handle st
      "\\plan SELECT * FROM recipes r, stocks s WHERE r.id = s.id AND \
       r.calories > 500"
  in
  Alcotest.(check bool) "hash join reported" true
    (contains r.Repl.output "hash joins: 1");
  Alcotest.(check bool) "pushdown reported" true
    (contains r.Repl.output "pushed predicates: 1")

let test_repl_dump () =
  let st = shell () in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      let r = Repl.handle st ("\\dump " ^ dir) in
      Alcotest.(check bool) "written" true (contains r.Repl.output "written");
      let db2 = Persist.load_dir dir in
      Alcotest.(check bool) "recipes survived" true
        (Database.find db2 "recipes" <> None))

(* Every SQL line goes through the plan cache, whose memoized closures
   outlive the request. A subquery in such a statement must still run
   under the request's governance token: here each of the 60 outer rows
   re-runs a 60^3-row product, which takes many seconds ungoverned. *)
let test_repl_cached_subquery_deadline () =
  let db = Database.create () in
  Database.put db "recipes" (Pb_workload.Workload.recipes ~seed:7 ~n:60 ());
  let st = Repl.create db in
  let sql =
    "SELECT COUNT(*) FROM recipes WHERE id IN (SELECT a.id FROM recipes a, \
     recipes b, recipes c WHERE a.calories + b.calories + c.calories > 0)"
  in
  let gov = Pb_util.Gov.create ~deadline_in:0.3 () in
  let t0 = Unix.gettimeofday () in
  let r = Repl.handle ~gov st sql in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "cancelled" "cancelled: deadline" r.Repl.output;
  if elapsed > 2.0 then
    Alcotest.failf "deadline 0.3s, returned after %.1fs" elapsed

let suite =
  [
    Alcotest.test_case "persist roundtrip" `Quick test_persist_roundtrip;
    Alcotest.test_case "persist keeps TEXT type" `Quick
      test_persist_preserves_text_type;
    Alcotest.test_case "persist keeps indexes" `Quick test_persist_preserves_indexes;
    Alcotest.test_case "persist empty table" `Quick test_persist_empty_table;
    Alcotest.test_case "persist missing manifest" `Quick
      test_persist_missing_manifest;
    Alcotest.test_case "persist tricky values" `Quick test_persist_tricky_values;
    Alcotest.test_case "persist rejects delimiter names" `Quick
      test_persist_rejects_delimiter_names;
    Alcotest.test_case "persist drops stale files" `Quick
      test_persist_drops_stale_files;
    Alcotest.test_case "repl dump reports bad name" `Quick
      test_repl_dump_reports_bad_name;
    Alcotest.test_case "repl help/quit/blank" `Quick test_repl_help_and_quit;
    Alcotest.test_case "repl tables + schema" `Quick test_repl_tables_and_schema;
    Alcotest.test_case "repl sql" `Quick test_repl_sql;
    Alcotest.test_case "repl paql + save/revalidate/drop" `Quick
      test_repl_paql_and_save;
    Alcotest.test_case "repl save without query" `Quick
      test_repl_save_without_query;
    Alcotest.test_case "repl sticky strategy" `Quick test_repl_strategy;
    Alcotest.test_case "repl explain + complete" `Quick
      test_repl_explain_and_complete;
    Alcotest.test_case "repl explain analyze spans coeffs" `Quick
      test_repl_explain_analyze_spans;
    Alcotest.test_case "repl next" `Quick test_repl_next;
    Alcotest.test_case "repl unknown command" `Quick test_repl_unknown_command;
    Alcotest.test_case "repl paql parse error" `Quick test_repl_paql_parse_error;
    Alcotest.test_case "repl plan" `Quick test_repl_plan;
    Alcotest.test_case "repl dump" `Quick test_repl_dump;
    Alcotest.test_case "repl cached subquery honours deadline" `Quick
      test_repl_cached_subquery_deadline;
  ]
