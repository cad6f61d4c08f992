(* Unit tests for the SketchRefine partitioner (lib/core/partition.ml)
   and for the sketch-refine strategy's determinism and governance
   contracts: partitions must be a disjoint complete cover with
   in-bounds centroids on any input (including degenerate ones), the
   whole strategy must be bit-identical at PB_DOMAINS=1 vs 8, and a
   deadline that fires mid-refine must surrender the current incumbent
   as [Feasible] — never [Cancelled] with a package in hand — leaving
   no refine MILP running behind the caller's back. *)

module Partition = Pb_core.Partition
module Coeffs = Pb_core.Coeffs
module Engine = Pb_core.Engine
module Gov = Pb_util.Gov
module Pool = Pb_par.Pool
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema

(* ---- partitioner invariants ----------------------------------------- *)

let random_features ~seed ~n ~d =
  let st = Random.State.make [| seed |] in
  Array.init d (fun _ ->
      Array.init n (fun _ -> float_of_int (Random.State.int st 1000)))

(* Disjointness, completeness, per-group ordering, size accounting and
   the group-count ceiling, straight from the partition.mli contract. *)
let check_invariants name (t : Partition.t) ~n ~target =
  let groups = t.Partition.groups in
  if n = 0 then
    Alcotest.(check int) (name ^ ": empty input, no groups") 0
      (Array.length groups)
  else begin
    Alcotest.(check bool)
      (name ^ ": group count in [1, min target n]")
      true
      (let g = Array.length groups in
       g >= 1 && g <= max 1 (min target n));
    let seen = Array.make n false in
    Array.iter
      (fun g ->
        Alcotest.(check bool) (name ^ ": nonempty group") true
          (Array.length g > 0);
        Array.iteri
          (fun i idx ->
            Alcotest.(check bool) (name ^ ": index in range") true
              (idx >= 0 && idx < n);
            Alcotest.(check bool) (name ^ ": disjoint groups") false seen.(idx);
            seen.(idx) <- true;
            if i > 0 then
              Alcotest.(check bool) (name ^ ": ascending within group") true
                (g.(i - 1) < idx))
          g)
      groups;
    Alcotest.(check bool) (name ^ ": complete cover") true
      (Array.for_all Fun.id seen);
    Alcotest.(check int)
      (name ^ ": sizes sum to n")
      n
      (Array.fold_left (fun acc g -> acc + Array.length g) 0 groups)
  end

(* Every centroid coordinate lies within its group's per-feature
   [min, max] envelope. *)
let check_centroids name (t : Partition.t) ~features =
  Array.iteri
    (fun gi g ->
      Array.iteri
        (fun dim f ->
          let lo = Array.fold_left (fun a i -> Float.min a f.(i)) infinity g in
          let hi =
            Array.fold_left (fun a i -> Float.max a f.(i)) neg_infinity g
          in
          let c = t.Partition.centroids.(gi).(dim) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: centroid (%d,%d) within [%g, %g]" name gi dim
               lo hi)
            true
            (c >= lo -. 1e-9 && c <= hi +. 1e-9))
        features)
    t.Partition.groups

let test_invariants_random () =
  List.iter
    (fun (n, d, target, seed) ->
      let features = random_features ~seed ~n ~d in
      let t = Partition.build ~target ~features ~n in
      let name = Printf.sprintf "n=%d d=%d target=%d" n d target in
      check_invariants name t ~n ~target;
      check_centroids name t ~features)
    [ (500, 2, 23, 1); (64, 1, 8, 2); (100, 3, 100, 3); (17, 2, 5, 4) ]

let test_degenerate () =
  (* one row *)
  let t = Partition.build ~target:4 ~features:[| [| 3.0 |] |] ~n:1 in
  check_invariants "n=1" t ~n:1 ~target:4;
  Alcotest.(check int) "n=1: one group" 1 (Partition.group_count t);
  (* empty input *)
  let t0 = Partition.build ~target:4 ~features:[| [||] |] ~n:0 in
  Alcotest.(check int) "n=0: no groups" 0 (Partition.group_count t0);
  (* all rows identical: nothing to split on, one group *)
  let const = Array.make 40 7.5 in
  let tc = Partition.build ~target:8 ~features:[| const; const |] ~n:40 in
  check_invariants "all-identical" tc ~n:40 ~target:8;
  Alcotest.(check int) "all-identical: one group" 1 (Partition.group_count tc);
  (* no features at all (objective-less COUNT-only query): one group *)
  let tf = Partition.build ~target:5 ~features:[||] ~n:10 in
  check_invariants "no features" tf ~n:10 ~target:5;
  Alcotest.(check int) "no features: one group" 1 (Partition.group_count tf);
  (* fewer rows than requested partitions: clamps to n singleton groups *)
  let distinct = Array.init 5 float_of_int in
  let ts = Partition.build ~target:50 ~features:[| distinct |] ~n:5 in
  check_invariants "target>n" ts ~n:5 ~target:50;
  Alcotest.(check int) "target>n: n singleton groups" 5
    (Partition.group_count ts);
  (* nonpositive target clamps to one group *)
  let tz = Partition.build ~target:0 ~features:[| distinct |] ~n:5 in
  check_invariants "target=0" tz ~n:5 ~target:1;
  Alcotest.(check int) "target=0: one group" 1 (Partition.group_count tz)

let test_build_deterministic () =
  let features = random_features ~seed:9 ~n:300 ~d:2 in
  let t1 = Partition.build ~target:17 ~features ~n:300 in
  let t2 = Partition.build ~target:17 ~features ~n:300 in
  Alcotest.(check bool) "two builds are structurally equal" true (t1 = t2)

(* A NaN in the lowest-index candidate used to seed the spread of its
   dimension, making the spread NaN and the dimension unsplittable: the
   whole input stayed one group. NaN is skipped when measuring spread. *)
let test_nan_first () =
  let f = [| nan; 1.; 2.; 3.; 4.; 5.; 6.; 7. |] in
  let t = Partition.build ~target:4 ~features:[| f |] ~n:8 in
  check_invariants "NaN at index 0" t ~n:8 ~target:4;
  Alcotest.(check bool) "NaN at index 0: split into >= 2 groups" true
    (Partition.group_count t >= 2);
  List.iter
    (fun (n, d, target, seed) ->
      let st = Random.State.make [| seed |] in
      let features =
        Array.init d (fun _ ->
            Array.init n (fun i ->
                if i = 0 || Random.State.int st 4 = 0 then nan
                else float_of_int (Random.State.int st 50)))
      in
      let name = Printf.sprintf "NaN-laden n=%d d=%d target=%d" n d target in
      let t1 = Partition.build ~target ~features ~n in
      check_invariants name t1 ~n ~target;
      Alcotest.(check bool) (name ^ ": more than one group") true
        (Partition.group_count t1 > 1);
      (* [compare], not [=]: a NaN centroid must equal itself *)
      Alcotest.(check bool) (name ^ ": deterministic") true
        (compare t1 (Partition.build ~target ~features ~n) = 0))
    [ (200, 1, 16, 5); (300, 2, 23, 6); (64, 3, 64, 7) ]

(* ---- differential oracle: the sort-based splitter ------------------- *)

(* The partitioner as first written: every split copies the group, sorts
   it by (value, index) with polymorphic compare, and re-sorts both
   halves ascending. Slow (boxed sorts of every level) but obviously
   right; [Partition.build] must reproduce its groups and centroids
   exactly on NaN-free inputs. *)
let oracle_build ~target ~(features : float array array) ~n =
  if n = 0 then ([||], [||])
  else begin
    let target = max 1 (min target n) in
    let widest_dim idx =
      let best = ref (-1) and best_spread = ref 0.0 in
      Array.iteri
        (fun dim f ->
          let lo = ref f.(idx.(0)) and hi = ref f.(idx.(0)) in
          Array.iter
            (fun i ->
              if f.(i) < !lo then lo := f.(i);
              if f.(i) > !hi then hi := f.(i))
            idx;
          if !hi -. !lo > !best_spread then begin
            best := dim;
            best_spread := !hi -. !lo
          end)
        features;
      if !best < 0 then None else Some !best
    in
    let splittable = ref [ Array.init n Fun.id ] and final = ref [] in
    let bigger g b =
      Array.length g > Array.length b
      || (Array.length g = Array.length b && g.(0) < b.(0))
    in
    while List.length !splittable + List.length !final < target
          && !splittable <> [] do
      let g =
        List.fold_left
          (fun b g -> if bigger g b then g else b)
          (List.hd !splittable) !splittable
      in
      splittable := List.filter (fun h -> h != g) !splittable;
      match widest_dim g with
      | None -> final := g :: !final
      | Some dim ->
          let f = features.(dim) in
          let by_value = Array.copy g in
          Array.sort (fun i j -> compare (f.(i), i) (f.(j), j)) by_value;
          let m = Array.length by_value in
          let left = Array.sub by_value 0 (m / 2)
          and right = Array.sub by_value (m / 2) (m - (m / 2)) in
          Array.sort compare left;
          Array.sort compare right;
          splittable := left :: right :: !splittable
    done;
    let groups = Array.of_list (!splittable @ !final) in
    Array.sort (fun a b -> compare a.(0) b.(0)) groups;
    let centroids =
      Array.map
        (fun g ->
          Array.map
            (fun f ->
              Array.fold_left (fun acc i -> acc +. f.(i)) 0.0 g
              /. float_of_int (Array.length g))
            features)
        groups
    in
    (groups, centroids)
  end

let matches_oracle ~target ~features ~n =
  let t = Partition.build ~target ~features ~n in
  compare (t.Partition.groups, t.Partition.centroids)
    (oracle_build ~target ~features ~n)
  = 0

(* Features from a seed: [kind] 0-2 draws integers from 1-3 distinct
   values (heavy ties), 3 draws wide reals, 4 draws from signed zeros
   and infinities. *)
let oracle_features ~seed ~n ~d ~kind =
  let st = Random.State.make [| seed |] in
  let specials = [| neg_infinity; -0.0; 0.0; 1.0; infinity |] in
  Array.init d (fun _ ->
      Array.init n (fun _ ->
          match kind with
          | 0 | 1 | 2 -> float_of_int (Random.State.int st (kind + 1))
          | 3 -> Random.State.float st 2e6 -. 1e6
          | _ -> specials.(Random.State.int st (Array.length specials))))

let oracle_case_gen =
  let open QCheck.Gen in
  let* n = frequency [ (1, int_range 0 40); (3, int_range 0 2000) ] in
  let* d = int_range 0 3 in
  let* kind = int_range 0 4 in
  let* target =
    oneof
      [ return 0; return 1; return n; map (fun k -> n + k) (int_range 1 50);
        int_range 0 (max 0 n) ]
  in
  let* seed = int_bound 1_000_000 in
  return (n, d, kind, target, seed)

let prop_oracle =
  QCheck.Test.make ~count:300 ~name:"partition build == sort-based oracle"
    (QCheck.make
       ~print:(fun (n, d, kind, target, seed) ->
         Printf.sprintf "n=%d d=%d kind=%d target=%d seed=%d" n d kind target
           seed)
       oracle_case_gen)
    (fun (n, d, kind, target, seed) ->
      matches_oracle ~target
        ~features:(oracle_features ~seed ~n ~d ~kind)
        ~n)

(* Orderings that defeat naive pivot choices, at a size where a
   quadratic quickselect would show. *)
let test_oracle_hostile () =
  let n = 50_000 in
  List.iter
    (fun (name, value) ->
      let features = [| Array.init n value |] in
      Alcotest.(check bool) (name ^ " matches the oracle") true
        (matches_oracle ~target:64 ~features ~n))
    [
      ("ascending", float_of_int);
      ("descending", fun i -> float_of_int (n - i));
      ("organ-pipe", fun i -> float_of_int (min i (n - 1 - i)));
      ("all-equal-but-one", fun i -> if i = n / 3 then 2.0 else 1.0);
    ]

(* ---- sketch-refine strategy: determinism across pool sizes ----------- *)

let mk_db ?(b_range = 100) ~seed n =
  let st = Random.State.make [| seed |] in
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "a"; ty = Value.T_int };
        { Schema.name = "b"; ty = Value.T_int };
      ]
  in
  let rows =
    List.init n (fun i ->
        [|
          Value.Int (i + 1);
          Value.Int (1 + Random.State.int st 50);
          Value.Int (Random.State.int st b_range);
        |])
  in
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "t" (Relation.create schema rows);
  db

let fingerprint (r : Engine.result) =
  ( (match r.package with
    | None -> []
    | Some p -> Array.to_list (Pb_paql.Package.multiplicities p)),
    r.objective,
    Engine.proof_to_string r.proof,
    r.stats )

let test_pool_determinism () =
  let query =
    "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 6 AND \
     SUM(P.a) <= 60 MAXIMIZE SUM(P.b)"
  in
  let run pool_size =
    Pool.with_pool pool_size (fun pool ->
        let db = mk_db ~seed:7 300 in
        let q = Pb_paql.Parser.parse query in
        Engine.run ~pool ~gov:(Gov.unlimited ())
          ~strategy:
            (Engine.Sketch_refine
               { Pb_core.Sketch_refine.partitions = Some 20; fanout = 4; prepartition = None })
          db q)
  in
  let r1 = run 1 and r8 = run 8 in
  Alcotest.(check bool) "found a package" true (Option.is_some r1.package);
  Alcotest.(check bool) "pool size 1 and 8 bit-identical" true
    (fingerprint r1 = fingerprint r8)

(* ---- governance: deadline mid-refine -------------------------------- *)

let milp_nodes_total () =
  match
    List.assoc_opt "pb_milp_nodes_total" (Pb_obs.Metrics.snapshot ())
  with
  | Some v -> v
  | None -> 0.0

(* A deadline that fires while refine legs are in flight must produce
   [Feasible] with the current incumbent — never [Cancelled] when a
   package is already in hand — and must join every leg before
   returning: the global branch-and-bound node counter has to be
   completely still afterwards. The instance (many small partitions,
   a wide COUNT window spreading sketch mass across dozens of them) is
   sized so refinement takes far longer than the deadline, while the
   sketch itself finishes almost immediately and seeds an incumbent.
   Deadlines race the machine, so we try a ladder of budgets and
   require that at least one run is actually stopped mid-refine. *)
let test_deadline_mid_refine () =
  (* near-unique b values spread the sketch mass across dozens of small
     partitions, so refinement takes many rounds while the sketch (and
     its first materialised incumbent) completes almost immediately *)
  let db = mk_db ~b_range:1_000_000 ~seed:11 20_000 in
  let q =
    Pb_paql.Parser.parse
      "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 100 AND \
       150 MAXIMIZE SUM(P.b)"
  in
  let c = Coeffs.make db q in
  let attempt deadline =
    let gov = Gov.create ~deadline_in:deadline ~milp_nodes:0 () in
    Engine.run_coeffs ~gov
      ~strategy:
        (Engine.Sketch_refine
           { Pb_core.Sketch_refine.partitions = Some 2000; fanout = 4; prepartition = None })
      db c
  in
  let stopped (r : Engine.result) =
    List.mem ("stopped", "deadline") r.stats
  in
  let debug = Sys.getenv_opt "PB_TEST_DEBUG" <> None in
  let rec find = function
    | [] -> None
    | d :: rest -> (
        let r = attempt d in
        if debug then
          Printf.eprintf "attempt d=%g stopped=%b package=%b proof=%s stats=[%s]\n%!"
            d (stopped r) (Option.is_some r.package)
            (Engine.proof_to_string r.proof)
            (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) r.stats));
        match (stopped r, r.package) with
        | true, Some _ -> Some r
        | _ -> find rest)
  in
  (* The stop window — after the sketch seeds an incumbent, before the
     last refine leg lands — shifts with pool size and machine load: a
     bigger domain pool makes the sketch phase *slower* (pool sync
     overhead on one LP), while full refinement of 2000 partitions
     stays tens of seconds at any size. So the ladder must reach well
     past the sketch time of the slowest configuration; the larger
     rungs are still deadline-stopped long before refinement ends. *)
  let ladder =
    [ 0.2; 0.12; 0.25; 0.06; 0.35; 0.03; 0.5; 0.7; 1.0; 1.5; 2.0; 3.0 ]
  in
  match find ladder with
  | None ->
      Alcotest.fail
        "no attempt was deadline-stopped mid-refine with an incumbent in hand"
  | Some r ->
      (match r.proof with
      | Engine.Feasible -> ()
      | p ->
          Alcotest.failf
            "deadline stop with an incumbent must be Feasible, got %s"
            (Engine.proof_to_string p));
      (match r.package with
      | Some pkg ->
          Alcotest.(check bool) "incumbent satisfies all constraints" true
            (Coeffs.check c pkg)
      | None -> assert false);
      (* no orphaned refine MILP: the node counter must be still *)
      let s1 = milp_nodes_total () in
      Thread.delay 0.15;
      let s2 = milp_nodes_total () in
      Alcotest.(check (float 0.0)) "no MILP still running after return" s1 s2

(* ---- partition reuse across queries --------------------------------- *)

module Database = Pb_sql.Database
module Mode = Pb_store.Mode

let metric name =
  match List.assoc_opt name (Pb_obs.Metrics.snapshot ()) with
  | Some v -> v
  | None -> 0.0

let reuses () = metric "pb_engine_sketch_partition_reuses_total"
let resident () = metric "pb_store_bytes_resident"

let with_mode mode f =
  let saved = Mode.current () in
  Mode.set mode;
  Fun.protect ~finally:(fun () -> Mode.set saved) f

let exec db sql = ignore (Pb_sql.Executor.execute_sql db sql)

let reuse_query =
  "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 6 AND \
   SUM(P.a) <= 60 MAXIMIZE SUM(P.b)"

let sr_params ?prepartition partitions =
  { Pb_core.Sketch_refine.partitions; fanout = 4; prepartition }

(* The fingerprint of a sketch-refine run of [text], and whether its
   partitioning came from the table's cache. *)
let run_sr ?(params = sr_params (Some 12)) db text =
  let before = reuses () in
  let r =
    Engine.run ~gov:(Gov.unlimited ())
      ~strategy:(Engine.Sketch_refine params) db
      (Pb_paql.Parser.parse text)
  in
  (fingerprint r, reuses () > before)

(* [f] on a new catalog holding a copy of [db]'s rows. *)
let with_fresh_copy db f =
  let rel = Database.find_exn db "t" in
  Database.with_scratch (fun fresh ->
      Database.put fresh "t"
        (Relation.create (Relation.schema rel) (Relation.to_list rel));
      f fresh)

let run_fresh ?params db text =
  with_fresh_copy db (fun fresh -> fst (run_sr ?params fresh text))

let csv_reload db =
  let rel = Database.find_exn db "t" in
  let path = Filename.temp_file "pb_partition" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "id,a,b\n";
      Array.iter
        (fun row ->
          output_string oc
            (String.concat ","
               (Array.to_list (Array.map Value.to_string row)));
          output_char oc '\n')
        (Relation.rows rel);
      close_out oc;
      Database.load_csv db ~name:"t" path)

(* A repeated query reuses the partitioning with an identical answer;
   every kind of write to the table forces one rebuild, whose answer is
   a fresh catalog's, and the run after it reuses again. *)
let test_reuse_and_invalidation mode () =
  with_mode mode (fun () ->
      let db = mk_db ~seed:5 200 in
      let first, hit = run_sr db reuse_query in
      Alcotest.(check bool) "first run builds" false hit;
      let again, hit = run_sr db reuse_query in
      Alcotest.(check bool) "repeat run reuses" true hit;
      Alcotest.(check bool) "reuse answers identically" true (first = again);
      let other, hit = run_sr ~params:(sr_params (Some 7)) db reuse_query in
      Alcotest.(check bool) "another target builds" false hit;
      Alcotest.(check bool) "its answer is a fresh catalog's" true
        (other = run_fresh ~params:(sr_params (Some 7)) db reuse_query);
      let writes =
        [
          ("INSERT", fun () -> exec db "INSERT INTO t VALUES (1001, 7, 99)");
          ("UPDATE", fun () -> exec db "UPDATE t SET b = b + 1 WHERE id <= 20");
          ("DELETE", fun () -> exec db "DELETE FROM t WHERE id = 3");
          ( "DROP+CREATE",
            fun () ->
              (* the very same rows come back under the same name: the
                 slot went with the DROP, not with the rows *)
              let rel = Database.find_exn db "t" in
              exec db "DROP TABLE t";
              Database.put db "t" rel );
          ("CSV reload", fun () -> csv_reload db);
        ]
      in
      List.iter
        (fun (name, write) ->
          ignore (run_sr db reuse_query);
          write ();
          let after, hit = run_sr db reuse_query in
          Alcotest.(check bool) (name ^ " forces a rebuild") false hit;
          Alcotest.(check bool)
            (name ^ ": answer equals a fresh catalog's")
            true
            (after = run_fresh db reuse_query);
          Alcotest.(check bool) (name ^ ": next run reuses") true
            (snd (run_sr db reuse_query)))
        writes)

(* Filtered candidate sets and caller-imposed groupings build fresh
   every time and neither read nor fill the slot. *)
let test_slot_bypass mode () =
  with_mode mode (fun () ->
      let db = mk_db ~seed:6 200 in
      let slot_empty () =
        Option.is_none (Database.derived db "t" (Database.find_exn db "t"))
      in
      let filtered =
        "SELECT PACKAGE(R) AS P FROM t R WHERE R.a > 10 SUCH THAT COUNT(*) \
         BETWEEN 1 AND 6 AND SUM(P.a) <= 60 MAXIMIZE SUM(P.b)"
      in
      let evens_odds =
        [| Array.init 100 (fun i -> 2 * i); Array.init 100 (fun i -> (2 * i) + 1) |]
      in
      let pre = sr_params ~prepartition:evens_odds (Some 12) in
      let runs_fresh name run =
        Alcotest.(check bool) (name ^ ": first run builds") false (snd (run ()));
        Alcotest.(check bool) (name ^ ": repeat builds again") false
          (snd (run ()))
      in
      runs_fresh "filtered" (fun () -> run_sr db filtered);
      runs_fresh "prepartition" (fun () -> run_sr ~params:pre db reuse_query);
      Alcotest.(check bool) "the slot stays empty" true (slot_empty ());
      ignore (run_sr db reuse_query);
      Alcotest.(check bool) "an unfiltered run fills it" false (slot_empty ());
      runs_fresh "filtered beside a full slot" (fun () -> run_sr db filtered);
      runs_fresh "prepartition beside a full slot" (fun () ->
          run_sr ~params:pre db reuse_query);
      Alcotest.(check bool) "the unfiltered query still reuses" true
        (snd (run_sr db reuse_query)))

(* The slot's bytes count in pb_store_bytes_resident until a write
   replaces the table or DROP TABLE removes it. *)
let test_slot_bytes mode () =
  with_mode mode (fun () ->
      let before = resident () in
      let db = mk_db ~seed:8 200 in
      ignore (run_sr db reuse_query);
      Alcotest.(check bool) "partitioning counted" true (resident () > before);
      exec db "UPDATE t SET b = b + 1 WHERE id <= 20";
      Alcotest.(check (float 0.0)) "gauge back after UPDATE" before
        (resident ());
      ignore (run_sr db reuse_query);
      Alcotest.(check bool) "rebuilt partitioning counted" true
        (resident () > before);
      exec db "DROP TABLE t";
      Alcotest.(check (float 0.0)) "gauge back after DROP TABLE" before
        (resident ()))

(* Random sketch-refine queries interleaved with random writes on one
   long-lived catalog: every answer (package, objective, bound, gap)
   equals the one a fresh catalog holding the same rows gives. *)
type op =
  | Query of { shape : int; lo : int; hi : int; cap : int; parts : int option }
  | Insert of int * int
  | Update of int * int
  | Delete of int * int

let query_text ~shape ~lo ~hi ~cap =
  let count = Printf.sprintf "COUNT(*) BETWEEN %d AND %d" lo hi in
  Printf.sprintf "SELECT PACKAGE(R) AS P FROM t R SUCH THAT %s"
    (match shape with
    | 0 -> Printf.sprintf "%s AND SUM(P.a) <= %d MAXIMIZE SUM(P.b)" count cap
    | 1 -> Printf.sprintf "%s AND SUM(P.b) >= %d MINIMIZE SUM(P.a)" count cap
    | 2 -> Printf.sprintf "%s MAXIMIZE SUM(P.b)" count
    | _ -> count)

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 6,
        (* few keys, so consecutive queries often share a partitioning *)
        let* shape = frequencyl [ (4, 0); (1, 1); (2, 2); (1, 3) ] in
        let* lo = int_range 1 3 in
        let* width = int_bound 3 in
        let* cap = int_range 20 150 in
        let* parts = frequencyl [ (4, None); (1, Some 5); (1, Some 12) ] in
        return (Query { shape; lo; hi = lo + width; cap; parts }) );
      (2, map2 (fun a b -> Insert (a, b)) (int_range 1 50) (int_bound 99));
      (1, map2 (fun lo w -> Update (lo, w)) (int_range 1 120) (int_range 1 40));
      (1, map2 (fun lo w -> Delete (lo, w)) (int_range 1 120) (int_range 1 10));
    ]

let print_op = function
  | Query { shape; lo; hi; cap; parts } ->
      Printf.sprintf "Q(shape=%d count=%d..%d cap=%d parts=%s)" shape lo hi cap
        (match parts with None -> "sqrt" | Some k -> string_of_int k)
  | Insert (a, b) -> Printf.sprintf "INSERT(a=%d b=%d)" a b
  | Update (lo, w) -> Printf.sprintf "UPDATE(id=%d..%d)" lo (lo + w - 1)
  | Delete (lo, w) -> Printf.sprintf "DELETE(id=%d..%d)" lo (lo + w - 1)

let prop_reuse_differential =
  QCheck.Test.make ~count:25
    ~name:"sketch-refine with partition reuse == fresh catalog under DML"
    (QCheck.make
       ~print:(fun (columnar, seed, ops) ->
         Printf.sprintf "columnar=%b seed=%d ops=[%s]" columnar seed
           (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(
         triple bool (int_bound 10_000) (list_size (int_range 4 12) op_gen)))
    (fun (columnar, seed, ops) ->
      with_mode (if columnar then Mode.Columnar else Mode.Row) (fun () ->
          let db = mk_db ~seed 120 in
          let next_id = ref 1000 in
          let answer db text parts =
            let c = Coeffs.make db (Pb_paql.Parser.parse text) in
            let o =
              Pb_core.Sketch_refine.search ~params:(sr_params parts)
                ~pool:(Pool.get_default ()) ~gov:(Gov.unlimited ()) c
            in
            ( Option.map Pb_paql.Package.multiplicities o.best,
              o.best_objective,
              o.bound,
              o.gap )
          in
          List.for_all
            (function
              | Query { shape; lo; hi; cap; parts } ->
                  let text = query_text ~shape ~lo ~hi ~cap in
                  let got = answer db text parts in
                  let want =
                    with_fresh_copy db (fun fresh -> answer fresh text parts)
                  in
                  (* [compare], not [=]: a NaN must equal itself *)
                  compare got want = 0
                  || QCheck.Test.fail_reportf "%s differs from a fresh catalog"
                       text
              | Insert (a, b) ->
                  incr next_id;
                  exec db
                    (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" !next_id
                       a b);
                  true
              | Update (lo, w) ->
                  exec db
                    (Printf.sprintf
                       "UPDATE t SET b = b + 7 WHERE id >= %d AND id < %d" lo
                       (lo + w));
                  true
              | Delete (lo, w) ->
                  exec db
                    (Printf.sprintf "DELETE FROM t WHERE id >= %d AND id < %d"
                       lo (lo + w));
                  true)
            ops))

let suite =
  [
    Alcotest.test_case "partition invariants on random inputs" `Quick
      test_invariants_random;
    Alcotest.test_case "partition degenerate inputs" `Quick test_degenerate;
    Alcotest.test_case "partition build is deterministic" `Quick
      test_build_deterministic;
    Alcotest.test_case "partition splits past a NaN at index 0" `Quick
      test_nan_first;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "partition matches oracle on hostile orderings" `Quick
      test_oracle_hostile;
    Alcotest.test_case "sketch-refine identical at pool size 1 vs 8" `Quick
      test_pool_determinism;
    Alcotest.test_case "deadline mid-refine yields Feasible incumbent" `Slow
      test_deadline_mid_refine;
    Alcotest.test_case "partition reuse and invalidation (row)" `Quick
      (test_reuse_and_invalidation Mode.Row);
    Alcotest.test_case "partition reuse and invalidation (columnar)" `Quick
      (test_reuse_and_invalidation Mode.Columnar);
    Alcotest.test_case "filtered and prepartitioned runs skip the slot (row)"
      `Quick (test_slot_bypass Mode.Row);
    Alcotest.test_case
      "filtered and prepartitioned runs skip the slot (columnar)" `Quick
      (test_slot_bypass Mode.Columnar);
    Alcotest.test_case "partition bytes leave the gauge on DROP (row)" `Quick
      (test_slot_bytes Mode.Row);
    Alcotest.test_case "partition bytes leave the gauge on DROP (columnar)"
      `Quick (test_slot_bytes Mode.Columnar);
    QCheck_alcotest.to_alcotest prop_reuse_differential;
  ]
