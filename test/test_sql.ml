(* Tests for the SQL substrate: lexer, parser, LIKE matcher, executor
   semantics (joins, aggregates, group-by, subqueries, DML). *)

module Lexer = Pb_sql.Lexer
module Parser = Pb_sql.Parser
module Ast = Pb_sql.Ast
module Executor = Pb_sql.Executor
module Database = Pb_sql.Database
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a.b, 'it''s', 4.5e2 <= 12 -- comment\n<>" in
  (match toks with
  | Lexer.Keyword "SELECT" :: Lexer.Ident "a" :: Lexer.Dot :: Lexer.Ident "b"
    :: Lexer.Comma :: Lexer.Str_lit "it's" :: Lexer.Comma
    :: Lexer.Float_lit 450.0 :: Lexer.Le_tok :: Lexer.Int_lit 12 :: rest ->
      (* the comment runs to end of line; <> on the next line survives *)
      Alcotest.(check bool) "tail" true (rest = [ Lexer.Neq_tok; Lexer.Eof ])
  | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check int) "token count" 12 (List.length toks)

let test_lexer_paql_keywords () =
  let toks = Lexer.tokenize "PACKAGE SUCH THAT REPEAT MAXIMIZE" in
  Alcotest.(check int) "5 keywords + eof" 6 (List.length toks);
  List.iteri
    (fun i t ->
      if i < 5 then
        match t with
        | Lexer.Keyword _ -> ()
        | _ -> Alcotest.fail "expected keyword")
    toks

let test_lexer_error () =
  (match Lexer.tokenize "SELECT #" with
  | exception Lexer.Lex_error (_, pos) -> Alcotest.(check int) "position" 7 pos
  | _ -> Alcotest.fail "expected lex error")

let test_parse_roundtrip () =
  let cases =
    [
      "SELECT * FROM t";
      "SELECT a, b AS c FROM t u WHERE u.a > 3 AND b <= 5";
      "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2";
      "SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 3";
      "SELECT DISTINCT a FROM t WHERE a BETWEEN 1 AND 2 OR b IN (1, 2, 3)";
      "SELECT a FROM t WHERE a IS NOT NULL AND name LIKE 'ab%'";
      "SELECT SUM(a + b * 2) FROM t WHERE NOT a = 3";
      "SELECT a FROM t WHERE EXISTS (SELECT b FROM s)";
      "SELECT a FROM t WHERE a NOT IN (SELECT b FROM s)";
    ]
  in
  List.iter
    (fun src ->
      let q1 = Parser.parse_select src in
      let printed = Ast.select_to_string q1 in
      let q2 = Parser.parse_select printed in
      Alcotest.(check string) ("roundtrip: " ^ src) printed
        (Ast.select_to_string q2))
    cases

let test_parse_statements () =
  let cases =
    [
      "CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL)";
      "INSERT INTO t VALUES (1, 'x', 2.5, TRUE), (2, 'y', 0.5, FALSE)";
      "INSERT INTO t (a, b) VALUES (3, 'z')";
      "DELETE FROM t WHERE a = 1";
      "UPDATE t SET b = 'w', c = 9.0 WHERE a = 2";
      "DROP TABLE t";
    ]
  in
  List.iter
    (fun src ->
      let s = Parser.parse_statement src in
      let printed = Ast.statement_to_string s in
      let s2 = Parser.parse_statement printed in
      Alcotest.(check string) src printed (Ast.statement_to_string s2))
    cases

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse_statement src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail ("expected parse error: " ^ src))
    [
      "SELECT";
      "SELECT a FROM";
      "SELECT a FROM t WHERE";
      "FROB x";
      "SELECT a FROM t LIMIT x";
      "SELECT a FROM t trailing garbage here ,";
    ]

let test_like () =
  let cases =
    [
      ("abc", "abc", true);
      ("a%", "abc", true);
      ("%c", "abc", true);
      ("%b%", "abc", true);
      ("a_c", "abc", true);
      ("a_c", "abbc", false);
      ("%", "", true);
      ("", "", true);
      ("", "a", false);
      ("a%b%c", "aXXbYYc", true);
      ("a%b%c", "acb", false);
      ("%%", "anything", true);
      ("x%", "abc", false);
    ]
  in
  List.iter
    (fun (pattern, s, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "LIKE %s ~ %s" pattern s)
        expected
        (Executor.like_match ~pattern s))
    cases

let setup_db () =
  let db = Database.create () in
  List.iter
    (fun sql -> ignore (Executor.execute_sql db sql))
    [
      "CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary INT)";
      "INSERT INTO emp VALUES (1, 'ada', 'eng', 120), (2, 'bob', 'eng', 100), \
       (3, 'cyd', 'ops', 90), (4, 'dan', 'ops', 80), (5, 'eve', 'mgmt', 150)";
      "CREATE TABLE dept (dname TEXT, floor INT)";
      "INSERT INTO dept VALUES ('eng', 3), ('ops', 1), ('mgmt', 5)";
    ];
  db

let select db sql =
  match Executor.execute_sql db sql with
  | Executor.Rows r -> r
  | _ -> Alcotest.fail "expected rows"

let test_select_where () =
  let db = setup_db () in
  let r = select db "SELECT name FROM emp WHERE salary >= 100" in
  Alcotest.(check int) "3 rows" 3 (Relation.cardinality r)

let test_select_expressions () =
  let db = setup_db () in
  let r = select db "SELECT salary * 2 AS double FROM emp WHERE id = 1" in
  Alcotest.(check bool) "doubled" true
    (Value.equal (Value.Int 240) (Relation.get r 0 "double"))

let test_join () =
  let db = setup_db () in
  let r =
    select db
      "SELECT e.name, d.floor FROM emp e, dept d WHERE e.dept = d.dname AND \
       d.floor >= 3"
  in
  Alcotest.(check int) "eng(2) + mgmt(1)" 3 (Relation.cardinality r)

let test_aggregates_single_group () =
  let db = setup_db () in
  let r = select db "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp" in
  Alcotest.(check bool) "count" true (Value.equal (Value.Int 5) (Relation.row r 0).(0));
  Alcotest.(check bool) "sum" true (Value.equal (Value.Int 540) (Relation.row r 0).(1));
  Alcotest.(check bool) "avg" true (Value.equal (Value.Float 108.0) (Relation.row r 0).(2));
  Alcotest.(check bool) "min" true (Value.equal (Value.Int 80) (Relation.row r 0).(3));
  Alcotest.(check bool) "max" true (Value.equal (Value.Int 150) (Relation.row r 0).(4))

let test_count_empty () =
  let db = setup_db () in
  let r = select db "SELECT COUNT(*) FROM emp WHERE salary > 1000" in
  Alcotest.(check bool) "zero" true (Value.equal (Value.Int 0) (Relation.row r 0).(0))

let test_group_by_having () =
  let db = setup_db () in
  let r =
    select db
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp GROUP BY \
       dept HAVING COUNT(*) >= 2 ORDER BY total DESC"
  in
  Alcotest.(check int) "two groups" 2 (Relation.cardinality r);
  Alcotest.(check bool) "eng first (220)" true
    (Value.equal (Value.Str "eng") (Relation.get r 0 "dept"))

let test_order_limit () =
  let db = setup_db () in
  let r = select db "SELECT name FROM emp ORDER BY salary DESC LIMIT 2" in
  Alcotest.(check int) "2 rows" 2 (Relation.cardinality r);
  Alcotest.(check bool) "eve first" true
    (Value.equal (Value.Str "eve") (Relation.get r 0 "name"))

let test_distinct () =
  let db = setup_db () in
  let r = select db "SELECT DISTINCT dept FROM emp" in
  Alcotest.(check int) "3 depts" 3 (Relation.cardinality r)

let test_in_subquery () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE dept IN (SELECT dname FROM dept WHERE \
       floor = 1)"
  in
  Alcotest.(check int) "ops members" 2 (Relation.cardinality r)

let test_not_in_subquery () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE dept NOT IN (SELECT dname FROM dept WHERE \
       floor = 1)"
  in
  Alcotest.(check int) "non-ops" 3 (Relation.cardinality r)

let test_exists () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE EXISTS (SELECT dname FROM dept WHERE floor \
       > 10)"
  in
  Alcotest.(check int) "empty exists" 0 (Relation.cardinality r)

let test_between_and_like () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE salary BETWEEN 90 AND 120 AND name LIKE \
       '%a%'"
  in
  (* ada(120), dan(80 out), cyd(90, no 'a')... ada only? dan salary 80 is
     out of range; 'dan' has an a but 80 < 90. So ada. *)
  Alcotest.(check int) "ada" 1 (Relation.cardinality r)

let test_scalar_functions () =
  let db = setup_db () in
  let r =
    select db
      "SELECT UPPER(name) AS u, LENGTH(name) AS l, ABS(0 - salary) AS a FROM \
       emp WHERE id = 1"
  in
  Alcotest.(check bool) "upper" true (Value.equal (Value.Str "ADA") (Relation.get r 0 "u"));
  Alcotest.(check bool) "length" true (Value.equal (Value.Int 3) (Relation.get r 0 "l"));
  Alcotest.(check bool) "abs" true (Value.equal (Value.Int 120) (Relation.get r 0 "a"))

let test_insert_delete_update () =
  let db = setup_db () in
  (match Executor.execute_sql db "DELETE FROM emp WHERE dept = 'ops'" with
  | Executor.Affected 2 -> ()
  | _ -> Alcotest.fail "expected 2 deleted");
  (match Executor.execute_sql db "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'" with
  | Executor.Affected 2 -> ()
  | _ -> Alcotest.fail "expected 2 updated");
  let r = select db "SELECT SUM(salary) FROM emp" in
  (* 120+10 + 100+10 + 150 = 390 *)
  Alcotest.(check bool) "updated total" true
    (Value.equal (Value.Int 390) (Relation.row r 0).(0))

let test_insert_with_columns () =
  let db = setup_db () in
  ignore (Executor.execute_sql db "INSERT INTO emp (id, name) VALUES (9, 'zed')");
  let r = select db "SELECT dept FROM emp WHERE id = 9" in
  Alcotest.(check bool) "missing cols are null" true
    (Value.is_null (Relation.row r 0).(0))

let test_null_filtering () =
  let db = setup_db () in
  ignore (Executor.execute_sql db "INSERT INTO emp (id, name) VALUES (9, 'zed')");
  (* NULL salary comparisons are unknown -> filtered out *)
  let r = select db "SELECT name FROM emp WHERE salary > 0" in
  Alcotest.(check int) "null excluded" 5 (Relation.cardinality r);
  let r2 = select db "SELECT name FROM emp WHERE salary IS NULL" in
  Alcotest.(check int) "is null" 1 (Relation.cardinality r2)

let test_missing_table () =
  let db = setup_db () in
  match Executor.execute_sql db "SELECT * FROM nope" with
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected eval error"

let test_csv_load () =
  let path = Filename.temp_file "pb_test" ".csv" in
  let oc = open_out path in
  output_string oc "id,name,score\n1,ada,3.5\n2,bob,\n";
  close_out oc;
  let db = Database.create () in
  Database.load_csv db ~name:"people" path;
  Sys.remove path;
  let r = select db "SELECT COUNT(*) FROM people" in
  Alcotest.(check bool) "2 rows" true (Value.equal (Value.Int 2) (Relation.row r 0).(0));
  let r2 = select db "SELECT score FROM people WHERE name = 'bob'" in
  Alcotest.(check bool) "empty is null" true (Value.is_null (Relation.row r2 0).(0))

let test_cartesian_growth () =
  (* The §4.2 complexity claim rests on products growing multiplicatively. *)
  let db = setup_db () in
  let r = select db "SELECT e1.id, e2.id FROM emp e1, emp e2" in
  Alcotest.(check int) "5x5" 25 (Relation.cardinality r);
  let r3 = select db "SELECT e1.id FROM emp e1, emp e2, emp e3" in
  Alcotest.(check int) "5^3" 125 (Relation.cardinality r3)

(* ---- prepared-plan cache ---------------------------------------------- *)

let test_plan_cache_hit_and_normalize () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create () in
  let h0 = Pb_sql.Plan_cache.hits () and m0 = Pb_sql.Plan_cache.misses () in
  let parse = Parser.parse_script in
  let s1, memo1 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  (* whitespace/trailing-semicolon variants share the entry... *)
  let s2, memo2 =
    Pb_sql.Plan_cache.lookup cache db ~parse "  SELECT * FROM emp; "
  in
  Alcotest.(check int) "one miss" 1 (Pb_sql.Plan_cache.misses () - m0);
  Alcotest.(check int) "one hit" 1 (Pb_sql.Plan_cache.hits () - h0);
  Alcotest.(check bool) "same statements" true (s1 == s2);
  Alcotest.(check bool) "same memo" true (memo1 == memo2);
  (* ...but interior whitespace is preserved (string literals) *)
  let _, memo3 =
    Pb_sql.Plan_cache.lookup cache db ~parse "SELECT  * FROM emp"
  in
  Alcotest.(check bool) "distinct entry" true (memo3 != memo1);
  Alcotest.(check int) "two entries" 2 (Pb_sql.Plan_cache.size cache)

let test_plan_cache_ddl_invalidation () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create () in
  let parse = Parser.parse_script in
  let v0 = Database.version db in
  let _, memo1 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  (* schema-preserving DML keeps the entry warm *)
  ignore (Executor.execute_sql db "INSERT INTO emp VALUES (9, 'zed', 'ops', 100)");
  Alcotest.(check int) "DML does not bump version" v0 (Database.version db);
  let h0 = Pb_sql.Plan_cache.hits () in
  let _, memo2 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  Alcotest.(check bool) "warm after DML" true (memo2 == memo1);
  Alcotest.(check int) "hit after DML" 1 (Pb_sql.Plan_cache.hits () - h0);
  (* DDL bumps the version and drops the stale entry *)
  ignore (Executor.execute_sql db "CREATE TABLE scratch (a INT)");
  Alcotest.(check bool) "DDL bumps version" true (Database.version db > v0);
  let m0 = Pb_sql.Plan_cache.misses () in
  let _, memo3 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  Alcotest.(check bool) "stale entry replaced" true (memo3 != memo1);
  Alcotest.(check int) "miss after DDL" 1 (Pb_sql.Plan_cache.misses () - m0);
  (* DROP TABLE and CREATE INDEX are DDL too *)
  let v1 = Database.version db in
  ignore (Executor.execute_sql db "DROP TABLE scratch");
  Alcotest.(check bool) "drop bumps" true (Database.version db > v1);
  let v2 = Database.version db in
  ignore (Executor.execute_sql db "CREATE INDEX ON emp (salary)");
  Alcotest.(check bool) "index bumps" true (Database.version db > v2)

let test_plan_cache_eviction () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create ~capacity:2 () in
  let parse = Parser.parse_script in
  let lookup text = ignore (Pb_sql.Plan_cache.lookup cache db ~parse text) in
  lookup "SELECT id FROM emp";
  lookup "SELECT name FROM emp";
  (* touch the first so the second is the LRU victim *)
  lookup "SELECT id FROM emp";
  lookup "SELECT dept FROM emp";
  Alcotest.(check int) "capacity respected" 2 (Pb_sql.Plan_cache.size cache);
  let h0 = Pb_sql.Plan_cache.hits () in
  lookup "SELECT id FROM emp";
  Alcotest.(check int) "recently-used survived" 1 (Pb_sql.Plan_cache.hits () - h0);
  let m0 = Pb_sql.Plan_cache.misses () in
  lookup "SELECT name FROM emp";
  Alcotest.(check int) "LRU was evicted" 1 (Pb_sql.Plan_cache.misses () - m0)

let test_prepared_execution_matches_fresh () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create () in
  let sql = "SELECT name, salary * 2 FROM emp WHERE salary >= 100 ORDER BY name" in
  let stmts, memo =
    Pb_sql.Plan_cache.lookup cache db ~parse:Parser.parse_script sql
  in
  let run () =
    List.map
      (fun stmt ->
        match Executor.execute ~memo db stmt with
        | Executor.Rows rel -> Relation.to_table rel
        | _ -> Alcotest.fail "expected rows")
      stmts
  in
  let fresh =
    match Executor.execute_sql db sql with
    | Executor.Rows rel -> Relation.to_table rel
    | _ -> Alcotest.fail "expected rows"
  in
  Alcotest.(check (list string)) "first prepared run" [ fresh ] (run ());
  Alcotest.(check (list string)) "repeat prepared run" [ fresh ] (run ())

(* Pin for [Executor.eval_agg_expr], the evaluator the package validator
   uses for SUCH THAT constraints: every expression node kind over a fixed
   3-row group and over the empty group. Bare columns read the group's
   first row (all NULLs for the empty group); aggregate arguments are
   evaluated row by row, so a nested aggregate is an error. *)
let test_eval_agg_expr_pin () =
  let schema =
    Pb_relation.Schema.make
      [
        { Pb_relation.Schema.name = "id"; ty = Value.T_int };
        { Pb_relation.Schema.name = "name"; ty = Value.T_str };
        { Pb_relation.Schema.name = "cal"; ty = Value.T_int };
        { Pb_relation.Schema.name = "cost"; ty = Value.T_float };
      ]
  in
  let group =
    [
      [| Value.Int 1; Value.Str "bob"; Value.Int 300; Value.Float 2.5 |];
      [| Value.Int 2; Value.Str "alice"; Value.Int 200; Value.Null |];
      [| Value.Int 3; Value.Str "carol"; Value.Int 100; Value.Float 1.25 |];
    ]
  in
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE s (k INT)");
  ignore (Executor.execute_sql db "INSERT INTO s VALUES (1), (5)");
  let ok v = Ok v and error msg = Error msg in
  let parse = Parser.parse_expr in
  (* (label, expression, over the 3-row group, over the empty group) *)
  let cases =
    [
      ("count star", parse "COUNT(*)", ok (Value.Int 3), ok (Value.Int 0));
      ("count skips null", parse "COUNT(cost)", ok (Value.Int 2), ok (Value.Int 0));
      ("sum int", parse "SUM(cal)", ok (Value.Int 600), ok Value.Null);
      ("sum float", parse "SUM(cost)", ok (Value.Float 3.75), ok Value.Null);
      ("avg", parse "AVG(cal)", ok (Value.Float 200.0), ok Value.Null);
      ("min string", parse "MIN(name)", ok (Value.Str "alice"), ok Value.Null);
      ("max string", parse "MAX(name)", ok (Value.Str "carol"), ok Value.Null);
      ( "case over aggregate",
        parse "CASE WHEN SUM(cal) > 500 THEN 'big' ELSE 'small' END",
        ok (Value.Str "big"),
        ok (Value.Str "small") );
      ("like on representative", parse "name LIKE 'b%'", ok (Value.Bool true), ok Value.Null);
      ( "not like on aggregate",
        parse "MAX(name) NOT LIKE '%o%'",
        ok (Value.Bool false),
        ok Value.Null );
      ( "in list",
        parse "COUNT(*) IN (1, 2, 3)",
        ok (Value.Bool true),
        ok (Value.Bool false) );
      ( "in subquery",
        parse "id IN (SELECT k FROM s)",
        ok (Value.Bool true),
        ok (Value.Bool false) );
      ( "exists",
        parse "EXISTS (SELECT k FROM s WHERE k > 4)",
        ok (Value.Bool true),
        ok (Value.Bool true) );
      ("bare column", parse "id", ok (Value.Int 1), ok Value.Null);
      ( "arithmetic",
        parse "-SUM(cal) + COUNT(*) * 2",
        ok (Value.Int (-594)),
        ok Value.Null );
      ( "between and not",
        parse "NOT (COUNT(*) BETWEEN 1 AND 3)",
        ok (Value.Bool false),
        ok (Value.Bool true) );
      ("is null", parse "cost IS NULL", ok (Value.Bool false), ok (Value.Bool true));
      ("function", parse "abs(MIN(cal) - 150)", ok (Value.Int 50), ok Value.Null);
      ( "missing argument",
        Ast.Agg (Ast.Sum, None),
        error "SUM requires an argument",
        error "SUM requires an argument" );
      ( "nested aggregate",
        parse "SUM(COUNT(*))",
        error "aggregate COUNT outside GROUP context",
        ok Value.Null );
    ]
  in
  let run group e =
    match Executor.eval_agg_expr ~db schema group e with
    | v -> Ok v
    | exception Executor.Eval_error msg -> Error msg
  in
  let show = function
    | Ok v -> "Ok " ^ Value.to_string v
    | Error msg -> "Error " ^ msg
  in
  let check label expected got =
    let same =
      match (expected, got) with
      | Ok a, Ok b -> Stdlib.compare a b = 0
      | Error a, Error b -> a = b
      | _ -> false
    in
    if not same then
      Alcotest.failf "%s: expected %s, got %s" label (show expected) (show got)
  in
  List.iter
    (fun (label, e, over_three, over_empty) ->
      check (label ^ " (3 rows)") over_three (run group e);
      check (label ^ " (empty)") over_empty (run [] e))
    cases

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer paql keywords" `Quick test_lexer_paql_keywords;
    Alcotest.test_case "lexer error position" `Quick test_lexer_error;
    Alcotest.test_case "parser roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parser statements" `Quick test_parse_statements;
    Alcotest.test_case "parser errors" `Quick test_parse_errors;
    Alcotest.test_case "like matcher" `Quick test_like;
    Alcotest.test_case "select where" `Quick test_select_where;
    Alcotest.test_case "select expressions" `Quick test_select_expressions;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "aggregates single group" `Quick test_aggregates_single_group;
    Alcotest.test_case "count empty" `Quick test_count_empty;
    Alcotest.test_case "group by + having" `Quick test_group_by_having;
    Alcotest.test_case "order by + limit" `Quick test_order_limit;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "in subquery" `Quick test_in_subquery;
    Alcotest.test_case "not in subquery" `Quick test_not_in_subquery;
    Alcotest.test_case "exists" `Quick test_exists;
    Alcotest.test_case "between + like" `Quick test_between_and_like;
    Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
    Alcotest.test_case "insert/delete/update" `Quick test_insert_delete_update;
    Alcotest.test_case "insert with columns" `Quick test_insert_with_columns;
    Alcotest.test_case "null filtering" `Quick test_null_filtering;
    Alcotest.test_case "missing table" `Quick test_missing_table;
    Alcotest.test_case "csv load + inference" `Quick test_csv_load;
    Alcotest.test_case "cartesian growth" `Quick test_cartesian_growth;
    Alcotest.test_case "plan cache hit + normalization" `Quick
      test_plan_cache_hit_and_normalize;
    Alcotest.test_case "plan cache DDL invalidation" `Quick
      test_plan_cache_ddl_invalidation;
    Alcotest.test_case "plan cache LRU eviction" `Quick
      test_plan_cache_eviction;
    Alcotest.test_case "prepared execution matches fresh" `Quick
      test_prepared_execution_matches_fresh;
    Alcotest.test_case "eval_agg_expr pin (3 rows, empty)" `Quick
      test_eval_agg_expr_pin;
  ]
