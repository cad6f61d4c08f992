module Ast = Pb_paql.Ast
module Analyze = Pb_paql.Analyze
module Package = Pb_paql.Package
module Model = Pb_lp.Model
module Milp = Pb_lp.Milp
module Gov = Pb_util.Gov
module Pool = Pb_par.Pool
module Progress = Pb_obs.Progress
module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Database = Pb_sql.Database
module Relation = Pb_relation.Relation

type params = {
  partitions : int option;
  fanout : int;
  prepartition : int array array option;
}

let default_params = { partitions = None; fanout = 4; prepartition = None }

(* Partitioning constrained to caller-supplied groups (the shard
   router's hash partitions): each prepartition group is sub-split by
   the usual median-split build over its own members — so refine legs
   never straddle a shard boundary — then the pieces are re-canonicalised
   (ascending members, groups ordered by smallest member) and centroids
   recomputed over the original features, restoring every Partition.build
   invariant. Indices out of range or repeated are dropped; candidates
   the prepartition misses form one extra group, so the result always
   covers [0, n) exactly. *)
let partition_within ~target ~features ~n (pre : int array array) =
  let seen = Array.make (max n 1) false in
  let clean =
    Array.to_list pre
    |> List.filter_map (fun g ->
           let members =
             Array.to_list g
             |> List.filter_map (fun i ->
                    if i >= 0 && i < n && not seen.(i) then begin
                      seen.(i) <- true;
                      Some i
                    end
                    else None)
           in
           if members = [] then None else Some (Array.of_list members))
  in
  let leftover =
    List.init n Fun.id |> List.filter (fun i -> not seen.(i))
  in
  let clean =
    match leftover with
    | [] -> clean
    | l -> clean @ [ Array.of_list l ]
  in
  let total = List.fold_left (fun acc g -> acc + Array.length g) 0 clean in
  let groups =
    List.concat_map
      (fun g ->
        let m = Array.length g in
        let sub_target =
          max 1
            (int_of_float
               (Float.round (float_of_int (target * m) /. float_of_int (max total 1))))
        in
        let sub_features =
          Array.map (fun f -> Array.map (fun i -> f.(i)) g) features
        in
        let sub = Partition.build ~target:sub_target ~features:sub_features ~n:m in
        Array.to_list sub.Partition.groups
        |> List.map (fun sg ->
               let mapped = Array.map (fun j -> g.(j)) sg in
               Array.sort compare mapped;
               mapped))
      clean
  in
  let groups =
    List.sort (fun a b -> compare a.(0) b.(0)) groups |> Array.of_list
  in
  let nfeat = Array.length features in
  let centroids =
    Array.map
      (fun g ->
        Array.init nfeat (fun d ->
            let acc = ref 0.0 in
            Array.iter (fun i -> acc := !acc +. features.(d).(i)) g;
            !acc /. float_of_int (Array.length g)))
      groups
  in
  { Partition.groups; centroids }

(* ---- Partition reuse ------------------------------------------------ *)

(* The offline step done once per table snapshot: an unconstrained
   partitioning of a whole stored relation lives in that table's derived
   slot (dropped on every write to the table), keyed by the package
   alias, the normalised feature expressions and the target group count.
   The features ride along because refinement's materialisation order
   reads them. A hit hands back the very arrays a build would produce,
   bit for bit: same rows, same expressions, same deterministic build. *)
type Database.derived +=
  | Partitioning of {
      key : string list;
      target : int;
      part : Partition.t;
      features : float array array;
    }

let m_partition_reuses =
  Metrics.counter
    ~help:"Sketch-refine partitionings reused from the table's cache"
    "pb_engine_sketch_partition_reuses_total"

(* Resident size of the cached arrays: one header word per array plus
   one word per element (ints and unboxed floats alike). *)
let partitioning_bytes (part : Partition.t) features =
  let words arrays =
    Array.fold_left (fun acc a -> acc + 1 + Array.length a) 1 arrays
  in
  (words part.groups + words part.centroids + words features)
  * (Sys.word_size / 8)

(* [Some stored] when the candidates are the whole stored input
   relation: physically its row store, which an unfiltered query's
   candidates share in either storage mode. *)
let whole_table (c : Coeffs.t) =
  match Database.find c.db c.query.input_relation with
  | Some stored when Relation.rows stored == Relation.rows c.candidates ->
      Some stored
  | _ -> None

(* The partitioning and its features, and whether they came from the
   cache. Caller-imposed groupings and filtered candidate sets are built
   fresh and never touch the slot. The build runs outside the catalog
   lock; two racing misses both build the same partitioning and the
   later install wins. *)
let partitioning ~params ~target (c : Coeffs.t) =
  let exprs = Analyze.aggregate_arguments c.query in
  let build () =
    let n = c.n in
    let features =
      List.map (fun e -> Coeffs.tuple_values c e) exprs |> Array.of_list
    in
    match params.prepartition with
    | None -> (Partition.build ~target ~features ~n, features)
    | Some pre -> (partition_within ~target ~features ~n pre, features)
  in
  match (params.prepartition, whole_table c) with
  | None, Some stored -> (
      let name = c.query.input_relation in
      let key =
        c.query.package_alias :: List.map Pb_sql.Ast.expr_to_string exprs
      in
      match Database.derived c.db name stored with
      | Some (Partitioning p) when p.key = key && p.target = target ->
          Metrics.incr m_partition_reuses;
          (p.part, p.features, true)
      | _ ->
          let part, features = build () in
          Database.set_derived c.db name stored
            (Partitioning { key; target; part; features })
            ~bytes:(partitioning_bytes part features);
          (part, features, false))
  | _ ->
      let part, features = build () in
      (part, features, false)

type outcome = {
  best : Package.t option;
  best_objective : float option;
  bound : float option;
  gap : float option;
  proven_optimal : bool;
  applicable : bool;
  reason : string;
  partitions_built : int;
  refine_steps : int;
  refined_partitions : int;
  stuck_partitions : int;
  sketch_status : string;
  partition_seconds : float;
  sketch_seconds : float;
  refine_seconds : float;
}

let empty_outcome =
  {
    best = None;
    best_objective = None;
    bound = None;
    gap = None;
    proven_optimal = false;
    applicable = true;
    reason = "";
    partitions_built = 0;
    refine_steps = 0;
    refined_partitions = 0;
    stuck_partitions = 0;
    sketch_status = "-";
    partition_seconds = 0.0;
    sketch_seconds = 0.0;
    refine_seconds = 0.0;
  }

let not_applicable reason = { empty_outcome with applicable = false; reason }

(* ---- Applicability ------------------------------------------------ *)

(* A solver row over the candidate multiplicities: Σ coef.(i)·x_i sense
   rhs, with strict comparisons already eps-tightened by
   {!Translate.cmp_to_row} so both model builders agree. [nonempty]
   carries SQL NULL semantics: the source aggregate rejects the empty
   package. *)
type row = {
  coef : float array;
  sense : Model.sense;
  rhs : float;
  nonempty : bool;
}

let rows_of_formula (c : Coeffs.t) =
  let rec go acc = function
    | Coeffs.C_true -> Ok acc
    | Coeffs.C_false ->
        (* constant-false SUCH THAT: an unsatisfiable row keeps the
           pipeline uniform and lets the bound sketch prove it *)
        Ok
          ({ coef = Array.make c.n 0.0; sense = Model.Ge; rhs = 1.0; nonempty = false }
          :: acc)
    | Coeffs.C_atom (Coeffs.C_linear { coef; cmp; rhs; has_sum }) ->
        let sense, rhs = Translate.cmp_to_row cmp rhs in
        Ok ({ coef; sense; rhs; nonempty = has_sum } :: acc)
    | Coeffs.C_atom (Coeffs.C_avg { arg; cmp; rhs }) ->
        (* AVG(e) cmp c  ==>  Σ (e_i - c)·x_i cmp 0, empty rejected. *)
        let shifted = Array.map (fun v -> v -. rhs) arg in
        let sense, rhs = Translate.cmp_to_row cmp 0.0 in
        Ok ({ coef = shifted; sense; rhs; nonempty = true } :: acc)
    | Coeffs.C_atom (Coeffs.C_ext _) ->
        Error "MIN/MAX constraints need per-tuple witnesses"
    | Coeffs.C_and fs ->
        List.fold_left (fun acc f -> Result.bind acc (fun a -> go a f)) (Ok acc) fs
    | Coeffs.C_or _ -> Error "disjunctive constraints"
  in
  match c.formula with
  | Error reason -> Error ("SUCH THAT is not linearizable: " ^ reason)
  | Ok f -> Result.map List.rev (go [] f)

type obj = No_obj | Linear of Ast.direction * float array

let objective_of_coeffs (c : Coeffs.t) =
  match c.objective with
  | None -> Ok No_obj
  | Some None -> Error "objective is not linearizable"
  | Some (Some (dir, coef)) -> Ok (Linear (dir, coef))

(* ---- Per-partition coefficient aggregation ------------------------ *)

let agg_mean groups coef =
  Array.map
    (fun g ->
      Array.fold_left (fun acc i -> acc +. coef.(i)) 0.0 g
      /. float_of_int (Array.length g))
    groups

(* The loosest member value for a row of the given sense: the smallest
   coefficient can only help a <= row, the largest a >= row. Any real
   package therefore maps to a feasible point of the bound sketch. *)
let agg_loose groups coef sense =
  Array.map
    (fun g ->
      match sense with
      | Model.Le ->
          Array.fold_left (fun acc i -> Float.min acc coef.(i)) infinity g
      | Model.Ge ->
          Array.fold_left (fun acc i -> Float.max acc coef.(i)) neg_infinity g
      | Model.Eq -> assert false (* cmp_to_row never yields Eq *))
    groups

let terms_of coefs vars =
  let out = ref [] in
  Array.iteri (fun p v -> if coefs.(p) <> 0.0 then out := (coefs.(p), v) :: !out) vars;
  !out

(* ---- Search ------------------------------------------------------- *)

let milp_status_to_string = function
  | Milp.Optimal -> "optimal"
  | Milp.Feasible -> "feasible"
  | Milp.Infeasible -> "infeasible"
  | Milp.Unbounded -> "unbounded"

(* Cap on how much representative mass the greedy incumbent
   materialisation will expand per round; keeps the anytime path
   O(package size), not O(relation). Deterministic: a pure function of
   the state, never of the pool or the clock. *)
let materialize_cap = 200_000

let search ~params ~pool ~gov (c : Coeffs.t) : outcome =
  match (rows_of_formula c, objective_of_coeffs c) with
  | Error reason, _ | _, Error reason -> not_applicable reason
  | Ok rows, Ok obj when c.n = 0 ->
      (* No candidates: the empty package is the only one. *)
      ignore rows;
      ignore obj;
      let valid = Coeffs.check_mult c [||] in
      let best = if valid then Some (Coeffs.package_of_mult c [||]) else None in
      {
        empty_outcome with
        best;
        best_objective = (if valid then Coeffs.objective_of_mult c [||] else None);
        proven_optimal = true;
        sketch_status = "empty";
      }
  | Ok rows, Ok obj ->
      let n = c.n in
      let rows_a = Array.of_list rows in
      let nrows = Array.length rows_a in
      let needs_nonempty = Array.exists (fun r -> r.nonempty) rows_a in
      (* -- Partition ------------------------------------------------ *)
      let (part, features), partition_seconds =
        Trace.timed ~name:"sketch-refine.partition" (fun () ->
            let target =
              match params.partitions with
              | Some k -> k
              | None -> int_of_float (Float.round (sqrt (float_of_int n)))
            in
            let part, features, cached = partitioning ~params ~target c in
            Trace.add_attr "cached" (string_of_bool cached);
            (part, features))
      in
      let groups = part.groups in
      let k = Array.length groups in
      let ub = Array.map (fun g -> Array.length g * c.max_mult) groups in
      (* Per-partition coefficients for both sketches. *)
      let mean_rows = Array.map (fun r -> agg_mean groups r.coef) rows_a in
      let loose_rows =
        Array.map (fun r -> agg_loose groups r.coef r.sense) rows_a
      in
      let mean_obj, loose_obj =
        match obj with
        | No_obj -> (None, None)
        | Linear (dir, coef) ->
            let loose_sense =
              match dir with Ast.Maximize -> Model.Ge | Ast.Minimize -> Model.Le
            in
            (Some (agg_mean groups coef), Some (agg_loose groups coef loose_sense))
      in
      let sketch_model row_coefs obj_coefs =
        let model = Model.create () in
        let yvars =
          Array.init k (fun p ->
              Model.add_var model ~integer:true ~lower:0.0
                ~upper:(float_of_int ub.(p))
                (Printf.sprintf "y%d" p))
        in
        Array.iteri
          (fun ri r ->
            Model.add_constr model
              ~name:(Printf.sprintf "row%d" ri)
              (terms_of row_coefs.(ri) yvars)
              r.sense r.rhs)
          rows_a;
        if needs_nonempty then
          Model.add_constr model ~name:"nonempty"
            (Array.to_list (Array.map (fun v -> (1.0, v)) yvars))
            Model.Ge 1.0;
        (match (obj, obj_coefs) with
        | No_obj, _ | _, None -> Model.set_objective model (Model.Maximize [])
        | Linear (dir, _), Some coefs ->
            let terms = terms_of coefs yvars in
            Model.set_objective model
              (match dir with
              | Ast.Maximize -> Model.Maximize terms
              | Ast.Minimize -> Model.Minimize terms));
        (model, yvars)
      in
      (* -- Sketch --------------------------------------------------- *)
      let ((bound_sol, bound_vars), (rep_sol, rep_vars)), sketch_seconds =
        Trace.timed ~name:"sketch-refine.sketch" (fun () ->
            let bound_model, bound_vars = sketch_model loose_rows loose_obj in
            let bound_sol = Milp.solve ~gov:(Gov.child gov) bound_model in
            let rep_model, rep_vars = sketch_model mean_rows mean_obj in
            let rep_sol = Milp.solve ~gov:(Gov.child gov) rep_model in
            ((bound_sol, bound_vars), (rep_sol, rep_vars)))
      in
      if bound_sol.Milp.status = Milp.Infeasible then
        (* Sound: the bound sketch relaxes every real package. *)
        {
          empty_outcome with
          best = None;
          proven_optimal = true;
          partitions_built = k;
          sketch_status = "bound-infeasible";
          partition_seconds;
          sketch_seconds;
        }
      else begin
        let bound =
          match (obj, bound_sol.Milp.status) with
          | Linear _, Milp.Optimal -> Some bound_sol.Milp.objective
          | _ -> None
        in
        let y_of sol vars =
          if Array.length sol.Milp.x = 0 then None
          else
            Some
              (Array.map
                 (fun v -> int_of_float (Float.round sol.Milp.x.(v)))
                 vars)
        in
        let y0 =
          (* seed refinement from the mean sketch; if it produced no
             point (e.g. mean-level infeasible), fall back to the bound
             sketch's — refinement re-solves anyway, the seed only ranks
             which partitions to refine first *)
          match y_of rep_sol rep_vars with
          | Some y -> y
          | None -> (
              match y_of bound_sol bound_vars with
              | Some y -> y
              | None -> Array.make k 0)
        in
        let sketch_status = milp_status_to_string rep_sol.Milp.status in
        (* -- Refine --------------------------------------------------- *)
        let result, refine_seconds =
          Trace.timed ~name:"sketch-refine.refine" (fun () ->
              let refined = Array.make k false in
              let stuck = Array.make k false in
              let repy = Array.copy y0 in
              let fixed_rows = Array.make nrows 0.0 in
              let fixed_count = ref 0 in
              let fixed_obj = ref 0.0 in
              let fixed_sparse = ref [] in
              let refine_steps = ref 0 in
              let stopped = ref false in
              (* Greedy materialisation order: nearest the centroid
                 first; computed lazily per partition, once. *)
              let mat_order = Array.make k None in
              let order_of p =
                match mat_order.(p) with
                | Some o -> o
                | None ->
                    let cent = part.centroids.(p) in
                    let dist i =
                      let acc = ref 0.0 in
                      Array.iteri
                        (fun d f ->
                          let dv = f.(i) -. cent.(d) in
                          acc := !acc +. (dv *. dv))
                        features;
                      !acc
                    in
                    let keyed =
                      Array.map (fun i -> (dist i, i)) groups.(p)
                    in
                    Array.sort compare keyed;
                    let o = Array.map snd keyed in
                    mat_order.(p) <- Some o;
                    o
              in
              let row_ok v (r : row) =
                match r.sense with
                | Model.Le -> v <= r.rhs
                | Model.Ge -> v >= r.rhs
                | Model.Eq -> Float.abs (v -. r.rhs) <= Translate.strict_eps
              in
              (* Expand the current hybrid state (fixed tuples +
                 representative mass) into a concrete candidate package
                 and check it against the real per-tuple coefficients. *)
              let materialize () =
                let mass = ref 0 in
                Array.iteri
                  (fun p y -> if not refined.(p) then mass := !mass + y)
                  repy;
                if !mass > materialize_cap then None
                else begin
                  let extra = ref [] in
                  let row_vals = Array.copy fixed_rows in
                  let cnt = ref !fixed_count in
                  let ob = ref !fixed_obj in
                  for p = 0 to k - 1 do
                    if (not refined.(p)) && repy.(p) > 0 then begin
                      let order = order_of p in
                      let remaining = ref repy.(p) in
                      Array.iter
                        (fun i ->
                          if !remaining > 0 then begin
                            let m = min c.max_mult !remaining in
                            remaining := !remaining - m;
                            extra := (i, m) :: !extra;
                            let fm = float_of_int m in
                            Array.iteri
                              (fun ri r ->
                                row_vals.(ri) <-
                                  row_vals.(ri) +. (r.coef.(i) *. fm))
                              rows_a;
                            cnt := !cnt + m;
                            match obj with
                            | Linear (_, coef) ->
                                ob := !ob +. (coef.(i) *. fm)
                            | No_obj -> ()
                          end)
                        order
                    end
                  done;
                  let valid =
                    (try
                       Array.iteri
                         (fun ri r ->
                           if not (row_ok row_vals.(ri) r) then raise Exit)
                         rows_a;
                       true
                     with Exit -> false)
                    && ((not needs_nonempty) || !cnt >= 1)
                  in
                  if not valid then None
                  else
                    let objective =
                      match obj with
                      | No_obj -> None
                      | Linear _ -> if !cnt = 0 then None else Some !ob
                    in
                    Some (!extra @ !fixed_sparse, objective)
                end
              in
              let best = ref None in
              let improves cand_obj =
                match (!best, cand_obj) with
                | None, _ -> true
                | Some (_, None), Some _ -> true
                | Some (_, Some cur), Some v -> (
                    match obj with
                    | Linear (Ast.Maximize, _) -> v > cur +. 1e-12
                    | Linear (Ast.Minimize, _) -> v < cur -. 1e-12
                    | No_obj -> false)
                | Some _, None -> false
              in
              let try_incumbent () =
                match materialize () with
                | Some (sparse, objective) when improves objective ->
                    best := Some (sparse, objective);
                    (match objective with
                    | Some v ->
                        Progress.incumbent ~key:(Gov.family_id gov)
                          ~strategy:"sketch-refine" ?bound ~nodes:!refine_steps
                          v
                    | None -> ())
                | _ -> ()
              in
              (* One refine leg: re-solve with partition [p]'s real
                 tuples, other unrefined partitions as representatives,
                 refined tuples frozen into the right-hand sides. *)
              let solve_leg p =
                let model = Model.create () in
                let xvars =
                  Array.map
                    (fun i ->
                      ( i,
                        Model.add_var model ~integer:true ~lower:0.0
                          ~upper:(float_of_int c.max_mult)
                          (Printf.sprintf "x%d" i) ))
                    groups.(p)
                in
                let yvars = ref [] in
                for q = k - 1 downto 0 do
                  if (not refined.(q)) && q <> p then
                    yvars :=
                      ( q,
                        Model.add_var model ~integer:true ~lower:0.0
                          ~upper:(float_of_int ub.(q))
                          (Printf.sprintf "y%d" q) )
                      :: !yvars
                done;
                let yvars = !yvars in
                Array.iteri
                  (fun ri r ->
                    let terms = ref [] in
                    Array.iter
                      (fun (i, v) ->
                        if r.coef.(i) <> 0.0 then
                          terms := (r.coef.(i), v) :: !terms)
                      xvars;
                    List.iter
                      (fun (q, v) ->
                        let cq = mean_rows.(ri).(q) in
                        if cq <> 0.0 then terms := (cq, v) :: !terms)
                      yvars;
                    Model.add_constr model
                      ~name:(Printf.sprintf "row%d" ri)
                      !terms r.sense
                      (r.rhs -. fixed_rows.(ri)))
                  rows_a;
                if needs_nonempty && !fixed_count < 1 then begin
                  let terms =
                    Array.to_list (Array.map (fun (_, v) -> (1.0, v)) xvars)
                    @ List.map (fun (_, v) -> (1.0, v)) yvars
                  in
                  Model.add_constr model ~name:"nonempty" terms Model.Ge 1.0
                end;
                (match obj with
                | No_obj -> Model.set_objective model (Model.Maximize [])
                | Linear (dir, coef) ->
                    let terms = ref [] in
                    Array.iter
                      (fun (i, v) ->
                        if coef.(i) <> 0.0 then terms := (coef.(i), v) :: !terms)
                      xvars;
                    let mobj = Option.get mean_obj in
                    List.iter
                      (fun (q, v) ->
                        if mobj.(q) <> 0.0 then terms := (mobj.(q), v) :: !terms)
                      yvars;
                    Model.set_objective model
                      (match dir with
                      | Ast.Maximize -> Model.Maximize !terms
                      | Ast.Minimize -> Model.Minimize !terms));
                let sol = Milp.solve ~gov:(Gov.child gov) model in
                match sol.Milp.status with
                | (Milp.Optimal | Milp.Feasible)
                  when Array.length sol.Milp.x > 0 ->
                    Some
                      ( p,
                        sol.Milp.objective,
                        Array.map
                          (fun (i, v) ->
                            (i, int_of_float (Float.round sol.Milp.x.(v))))
                          xvars,
                        List.map
                          (fun (q, v) ->
                            (q, int_of_float (Float.round sol.Milp.x.(v))))
                          yvars )
                | _ -> None
              in
              let commit (p, _, xs, ys) =
                refined.(p) <- true;
                repy.(p) <- 0;
                Array.iter
                  (fun (i, m) ->
                    if m > 0 then begin
                      fixed_sparse := (i, m) :: !fixed_sparse;
                      fixed_count := !fixed_count + m;
                      let fm = float_of_int m in
                      Array.iteri
                        (fun ri r ->
                          fixed_rows.(ri) <-
                            fixed_rows.(ri) +. (r.coef.(i) *. fm))
                        rows_a;
                      match obj with
                      | Linear (_, coef) ->
                          fixed_obj := !fixed_obj +. (coef.(i) *. fm)
                      | No_obj -> ()
                    end)
                  xs;
                List.iter (fun (q, y) -> repy.(q) <- y) ys
              in
              try_incumbent ();
              let no_obj_done () = obj = No_obj && !best <> None in
              let candidates () =
                let s = ref [] in
                for p = k - 1 downto 0 do
                  if (not refined.(p)) && (not stuck.(p)) && repy.(p) > 0 then
                    s := p :: !s
                done;
                (* biggest representative mass first, ties to the lowest
                   partition index *)
                List.stable_sort
                  (fun a b -> compare (-repy.(a), a) (-repy.(b), b))
                  !s
              in
              let rec loop () =
                if !stopped || no_obj_done () then ()
                else
                  match Gov.refresh gov with
                  | Some _ -> stopped := true
                  | None when Gov.check ~resource:Gov.Milp_nodes gov <> None ->
                      (* node budget exhausted: further legs could not
                         search, stop with the incumbent (reported as a
                         plain Feasible, not Cancelled — budget stops
                         are not latched as fate) *)
                      stopped := true
                  | None -> (
                      match candidates () with
                      | [] -> ()
                      | all ->
                          let batch =
                            List.filteri (fun i _ -> i < params.fanout) all
                          in
                          let batch_a = Array.of_list batch in
                          let legs =
                            Pool.map_chunks pool ~chunk_size:1
                              ~n:(Array.length batch_a)
                              (fun ~lo ~hi ->
                                let out = ref [] in
                                for i = hi - 1 downto lo do
                                  out := solve_leg batch_a.(i) :: !out
                                done;
                                !out)
                            |> List.concat
                          in
                          refine_steps := !refine_steps + List.length legs;
                          let winner =
                            List.fold_left
                              (fun acc leg ->
                                match (acc, leg) with
                                | None, l -> l
                                | Some _, None -> acc
                                | ( Some (_, bo, _, _),
                                    Some (_, lo_, _, _) ) -> (
                                    (* strict improvement only: ties keep
                                       the earlier (lower-mass-rank) leg *)
                                    match obj with
                                    | Linear (Ast.Maximize, _) ->
                                        if lo_ > bo then leg else acc
                                    | Linear (Ast.Minimize, _) ->
                                        if lo_ < bo then leg else acc
                                    | No_obj -> acc))
                              None legs
                          in
                          (match winner with
                          | Some leg -> commit leg
                          | None ->
                              List.iter (fun p -> stuck.(p) <- true) batch);
                          try_incumbent ();
                          loop ())
              in
              loop ();
              let refined_partitions =
                Array.fold_left (fun a r -> if r then a + 1 else a) 0 refined
              in
              let stuck_partitions =
                Array.fold_left (fun a s -> if s then a + 1 else a) 0 stuck
              in
              (!best, !refine_steps, refined_partitions, stuck_partitions))
        in
        let best_state, refine_steps, refined_partitions, stuck_partitions =
          result
        in
        let best, best_objective =
          match best_state with
          | None -> (None, None)
          | Some (sparse, objective) ->
              let m = Array.make n 0 in
              List.iter (fun (i, mm) -> m.(i) <- mm) sparse;
              (Some (Coeffs.package_of_mult c m), objective)
        in
        let proven_optimal, gap =
          match obj with
          | No_obj -> (best <> None, None)
          | Linear _ -> (
              match (bound, best_objective) with
              | Some b, Some v ->
                  let g = Float.abs (b -. v) /. Float.max 1.0 (Float.abs v) in
                  (g <= 1e-9, Some g)
              | _ -> (false, None))
        in
        {
          best;
          best_objective;
          bound;
          gap;
          proven_optimal;
          applicable = true;
          reason = "";
          partitions_built = k;
          refine_steps;
          refined_partitions;
          stuck_partitions;
          sketch_status;
          partition_seconds;
          sketch_seconds;
          refine_seconds;
        }
      end
