(* The traced run: replay served requests inside the benchmark process,
   calling each layer's public entry point inside a benchmark-side span
   (name, start, end, parent, request id). Nothing here reaches into
   the program; spans inside the program come from Pb_obs, not from
   these timers.

   A replayed request is one root span "request" whose children are the
   layer calls; a layer's time is its spans' self time (duration minus
   child spans). Layer probes that would repeat work the request already
   did (a second Partition.build, a whole-model Translate.build) run
   outside any root, so they feed their layer metric but not coverage. *)

module Database = Pb_sql.Database
module Relation = Pb_relation.Relation
module Protocol = Pb_net.Protocol

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  req : int;  (** replayed request index; -1 for probes *)
  name : string;
  start : float;
  mutable stop : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  current_req := -1

let open_span name =
  let s =
    {
      id = !next_id;
      parent = (match !stack with p :: _ -> p | [] -> -1);
      req = !current_req;
      name;
      start = Unix.gettimeofday ();
      stop = nan;
    }
  in
  incr next_id;
  spans := s :: !spans;
  stack := s.id :: !stack;
  s

let close_span s =
  s.stop <- Unix.gettimeofday ();
  stack := List.tl !stack

let span name f =
  let s = open_span name in
  match f () with
  | v ->
      close_span s;
      v
  | exception e ->
      close_span s;
      raise e

(* A child span for a phase the callee timed itself (the SketchRefine
   outcome's partition/sketch/refine seconds), laid end to end inside
   the currently open span; returns where it ends. *)
let phase ~name ~start seconds =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  spans := { id = !next_id; parent; req = !current_req; name; start; stop = start +. seconds } :: !spans;
  incr next_id;
  start +. seconds

let request ~index f =
  current_req := index;
  let v = span "request" f in
  current_req := -1;
  v

let duration s = s.stop -. s.start

(* Total duration of the replayed requests' root spans. *)
let root_seconds () =
  List.fold_left (fun acc s -> if s.name = "request" then acc +. duration s else acc) 0.0 !spans

(* Per-name self time and span count over every closed span. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0
      in
      let t, n = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0) in
      Hashtbl.replace by_name s.name (t +. self, n + 1))
    !spans;
  by_name

(* ---- replay --------------------------------------------------------- *)

type ctx = {
  db : Database.t;  (** the replay's own copy of the tables *)
  sketch : bool;  (** session strategy is sketch-refine (else hybrid) *)
  shards : Pb_net.Client.t array;  (** direct shard connections (router) *)
  mutable images_built : int;
  mutable image_seconds : float;
  mutable hops : int;
  mutable hop_seconds : float;
  mutable hop_bytes : int;
  mutable hop_bytes_max : int;
  mutable sketch_queries : int;
  mutable partitions_built : int;
  mutable refined_partitions : int;
  mutable candidates : int;
  mutable milp_seconds : float;
  mutable pivots : float;
}

let create ~db ~sketch ~shards =
  {
    db;
    sketch;
    shards;
    images_built = 0;
    image_seconds = 0.0;
    hops = 0;
    hop_seconds = 0.0;
    hop_bytes = 0;
    hop_bytes_max = 0;
    sketch_queries = 0;
    partitions_built = 0;
    refined_partitions = 0;
    candidates = 0;
    milp_seconds = 0.0;
    pivots = 0.0;
  }

let pivots_now () =
  match List.assoc_opt "pb_lp_pivots_total" (Pb_obs.Metrics.snapshot ()) with
  | Some v -> v
  | None -> 0.0

(* Frame the request exactly as a client would and push it through the
   server's incremental assembler and request decoder. *)
let assemble text =
  span "net.assemble" (fun () ->
      let payload =
        Protocol.encode_request { Protocol.text; deadline = None; trace = None; data = false }
      in
      let a = Pb_net.Assembler.create () in
      Pb_net.Assembler.feed a (Printf.sprintf "%d\n%s" (String.length payload) payload);
      match Pb_net.Assembler.next a with
      | `Frame p -> ignore (Protocol.decode_client_frame p)
      | `Awaiting | `Bad _ -> failwith "replay: request frame did not assemble")

let encode body =
  span "net.encode" (fun () ->
      ignore (Protocol.encode_response { Protocol.status = Protocol.Ok; body }))

(* Columnar image of [name] as the executor will see it; a miss is an
   image build. *)
let columnar ctx db name =
  match Database.find db name with
  | None -> ()
  | Some rel ->
      let s = open_span "store.columnar" in
      let built = Database.columnar_cached db name rel = None in
      ignore (Database.columnar db name rel);
      close_span s;
      if built then begin
        ctx.images_built <- ctx.images_built + 1;
        ctx.image_seconds <- ctx.image_seconds +. duration s
      end

let render = function
  | Pb_sql.Executor.Rows rel -> Relation.to_table ~max_rows:40 rel
  | Pb_sql.Executor.Affected n -> Printf.sprintf "%d row(s) affected\n" n
  | Pb_sql.Executor.Created -> "ok\n"

let statement_tables = function
  | Pb_sql.Ast.Select_stmt q ->
      List.map (fun (t : Pb_sql.Ast.table_ref) -> t.Pb_sql.Ast.rel_name) q.Pb_sql.Ast.from
  | Pb_sql.Ast.Insert (name, _, _)
  | Pb_sql.Ast.Update (name, _, _)
  | Pb_sql.Ast.Delete (name, _) ->
      [ name ]
  | _ -> []

let execute ctx db stmt =
  List.iter (columnar ctx db) (statement_tables stmt);
  span "sql.execute" (fun () -> Pb_sql.Executor.execute db stmt)

let replay_sql ctx text =
  assemble text;
  let stmts = span "sql.parse" (fun () -> Pb_sql.Parser.parse_script text) in
  let out = Buffer.create 256 in
  List.iter (fun st -> Buffer.add_string out (render (execute ctx ctx.db st))) stmts;
  encode (String.trim (Buffer.contents out))

(* One hop: a statement sent straight to a shard in data mode. *)
let hop ctx i sql =
  let s = open_span "shard.hop" in
  let r = Pb_net.Client.request ~data:true ctx.shards.(i) sql in
  let rel =
    match Pb_net.Wire_data.decode_result r.Protocol.body with
    | Ok (Pb_sql.Executor.Rows rel) -> rel
    | Ok _ | Error _ -> failwith ("replay: shard hop returned no rows for " ^ sql)
  in
  close_span s;
  ctx.hops <- ctx.hops + 1;
  ctx.hop_seconds <- ctx.hop_seconds +. duration s;
  ctx.hop_bytes <- ctx.hop_bytes + String.length r.Protocol.body;
  ctx.hop_bytes_max <- max ctx.hop_bytes_max (String.length r.Protocol.body);
  rel

let concat rels =
  match rels with
  | [] -> failwith "replay: no shards"
  | first :: _ -> Relation.create (Relation.schema first) (List.concat_map Relation.to_list rels)

(* A routed read: the router's own decision (Merge.plan or scan-pull),
   each hop sent to the shards, the merge executed here. *)
let replay_routed_read ctx text =
  assemble text;
  let stmts = span "sql.parse" (fun () -> Pb_sql.Parser.parse_script text) in
  let out = Buffer.create 256 in
  List.iter
    (fun stmt ->
      match stmt with
      | Pb_sql.Ast.Select_stmt q -> (
          let n = Array.length ctx.shards in
          let scratch = Database.create () in
          match Pb_shard.Merge.plan ~table:"recipes" q with
          | Some plan ->
              let partial = Pb_sql.Ast.select_to_string plan.Pb_shard.Merge.partial in
              Database.put scratch plan.Pb_shard.Merge.scratch
                (concat (List.init n (fun i -> hop ctx i partial)));
              Buffer.add_string out
                (render (execute ctx scratch (Pb_sql.Ast.Select_stmt plan.Pb_shard.Merge.final)))
          | None ->
              Database.put scratch "recipes"
                (concat (List.init n (fun i -> hop ctx i "SELECT * FROM recipes")));
              Buffer.add_string out (render (execute ctx scratch stmt)))
      | _ -> failwith "replay: routed read is not a SELECT")
    stmts;
  encode (String.trim (Buffer.contents out))

let sketch_target n = int_of_float (Float.round (sqrt (float_of_int n)))

let linear (c : Pb_core.Coeffs.t) =
  match (c.formula, c.objective) with
  | Ok _, (None | Some (Some _)) -> true
  | _ -> false

let replay_paql ctx text =
  assemble text;
  let query = span "paql.parse" (fun () -> Pb_paql.Parser.parse text) in
  columnar ctx ctx.db query.Pb_paql.Ast.input_relation;
  let c = span "core.coeffs" (fun () -> Pb_core.Coeffs.make ctx.db query) in
  ctx.candidates <- ctx.candidates + c.Pb_core.Coeffs.n;
  let package =
    if ctx.sketch then begin
      let pivots0 = pivots_now () in
      let s = open_span "core.search" in
      let o =
        Pb_core.Sketch_refine.search ~params:Pb_core.Sketch_refine.default_params
          ~pool:(Pb_par.Pool.get_default ()) ~gov:(Pb_util.Gov.create ()) c
      in
      let t = phase ~name:"core.partition" ~start:s.start o.Pb_core.Sketch_refine.partition_seconds in
      let t = phase ~name:"core.sketch" ~start:t o.Pb_core.Sketch_refine.sketch_seconds in
      ignore (phase ~name:"core.refine" ~start:t o.Pb_core.Sketch_refine.refine_seconds);
      close_span s;
      ctx.sketch_queries <- ctx.sketch_queries + 1;
      ctx.partitions_built <- ctx.partitions_built + o.Pb_core.Sketch_refine.partitions_built;
      ctx.refined_partitions <-
        ctx.refined_partitions + o.Pb_core.Sketch_refine.refined_partitions;
      ctx.milp_seconds <-
        ctx.milp_seconds +. o.Pb_core.Sketch_refine.sketch_seconds
        +. o.Pb_core.Sketch_refine.refine_seconds;
      ctx.pivots <- ctx.pivots +. (pivots_now () -. pivots0);
      o.Pb_core.Sketch_refine.best
    end
    else
      (* MILP time and pivots of hybrid sessions come from the probe *)
      (span "core.engine" (fun () -> Pb_core.Engine.run_coeffs ctx.db c)).Pb_core.Engine.package
  in
  encode
    (match package with
    | Some pkg -> Pb_paql.Package.to_string pkg
    | None -> "no valid package\n");
  c

(* Probes outside the request root: a second Partition.build at the
   strategy's own target over its own features, the whole-candidate
   model translation, and (hybrid sessions, small inputs) the MILP
   solve of that model. *)
let probe_paql ctx (c : Pb_core.Coeffs.t) =
  if ctx.sketch then begin
    let features =
      Pb_paql.Analyze.aggregate_arguments c.Pb_core.Coeffs.query
      |> List.map (fun e -> Pb_core.Coeffs.tuple_values c e)
      |> Array.of_list
    in
    let n = c.Pb_core.Coeffs.n in
    ignore
      (span "core.partition.build" (fun () ->
           Pb_core.Partition.build ~target:(sketch_target n) ~features ~n))
  end;
  if linear c then begin
    let t = span "lp.translate" (fun () -> Pb_core.Translate.build c) in
    if not ctx.sketch then begin
      let pivots0 = pivots_now () in
      let s = open_span "lp.milp" in
      ignore (Pb_lp.Milp.solve ~gov:(Pb_util.Gov.create ()) t.Pb_core.Translate.model);
      close_span s;
      ctx.milp_seconds <- ctx.milp_seconds +. duration s;
      ctx.pivots <- ctx.pivots +. (pivots_now () -. pivots0)
    end
  end

let replay ctx ~index ~routed (r : Workloads.req) =
  match r.Workloads.kind with
  | Workloads.Paql ->
      let c = request ~index (fun () -> replay_paql ctx r.Workloads.text) in
      probe_paql ctx c
  | Workloads.Sql when routed -> request ~index (fun () -> replay_routed_read ctx r.text)
  | Workloads.Sql | Workloads.Write -> request ~index (fun () -> replay_sql ctx r.text)
