(* perfbench: the served benchmark. One run = one workload at one seed:

     bench --workload NAME --seed N --seconds S --trace 0|1 --bin DIR --work DIR

   generates the workload's tables from the seed, starts the real
   pb_server (or pb_router over two pb_server --shard i/2) binaries from
   --bin as child processes, drives them closed-loop over wire v2 for S
   seconds, checks every answer against a reference computed in-process
   with Pb_shell.Repl.handle on the same tables, and prints a run record
   followed by one JSON result line (end-to-end metrics with --trace 0,
   per-layer metrics with --trace 1). Exits 1 when any answer check
   fails or a server misbehaves. *)

module Client = Pb_net.Client
module Protocol = Pb_net.Protocol
module W = Workloads

let setup_repeats = 3

(* ---- small statistics ------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolation quantile; also returns how many samples lie
   strictly beyond it, so thin tails can be flagged. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let v = a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo))) in
    (v, Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- answer normalisation ------------------------------------------- *)

(* The PaQL footer "strategy: NAME[ (proof)], 1.234s" carries wall time;
   mask it so served and reference answers compare byte for byte. *)
let mask body =
  String.split_on_char '\n' body
  |> List.map (fun line ->
         if String.length line > 10 && String.sub line 0 10 = "strategy: " then
           match String.rindex_opt line ',' with
           | Some i -> String.sub line 0 i ^ ", <elapsed>"
           | None -> line
         else line)
  |> String.concat "\n"

(* Candidate ids of a rendered package (first column of each table row). *)
let package_ids body =
  let lines = String.split_on_char '\n' body in
  let rec rows acc seen_rule = function
    | [] -> List.rev acc
    | l :: rest when String.length l >= 3 && String.sub l 0 3 = "-- " -> rows acc seen_rule rest
    | l :: rest when (not seen_rule) && String.length l > 0 && l.[0] = '-' -> rows acc true rest
    | l :: rest when seen_rule -> (
        match String.index_opt l '|' with
        | Some i -> (
            match int_of_string_opt (String.trim (String.sub l 0 i)) with
            | Some id -> rows (id :: acc) seen_rule rest
            | None -> rows acc seen_rule rest)
        | None -> rows acc seen_rule rest)
    | _ :: rest -> rows acc seen_rule rest
  in
  rows [] false lines

(* ---- run state ------------------------------------------------------ *)

type sample = {
  client : int;
  index : int;
  req : W.req;
  rtt : float;
  finish : float;  (** completion time, seconds into the window *)
  status : Protocol.status option;  (** None = transport error *)
  body : string;
}

type servers = {
  front : Procs.t;  (** what clients connect to *)
  backends : Procs.t list;  (** shards behind a router; [] single node *)
}

let serving s = s.front :: s.backends

let start_servers ~bin ~work (w : W.t) tables =
  let table_args =
    List.concat_map (fun (name, path) -> [ "--table"; name ^ "=" ^ path ]) tables
  in
  let exe name = Filename.concat bin (name ^ ".exe") in
  match w.W.topology with
  | W.Single ->
      let p =
        Procs.spawn ~name:"pb_server" ~exe:(exe "pb_server")
          ~log:(Filename.concat work "pb_server.log")
          ([ "--port"; "0" ] @ table_args)
      in
      Procs.wait_ready p;
      { front = p; backends = [] }
  | W.Routed n ->
      let shards =
        List.init n (fun i ->
            Procs.spawn
              ~name:(Printf.sprintf "shard%d" i)
              ~exe:(exe "pb_server")
              ~log:(Filename.concat work (Printf.sprintf "shard%d.log" i))
              ([ "--port"; "0"; "--shard"; Printf.sprintf "%d/%d" i n ] @ table_args))
      in
      List.iter Procs.wait_ready shards;
      let router =
        Procs.spawn ~name:"pb_router" ~exe:(exe "pb_router")
          ~log:(Filename.concat work "pb_router.log")
          ([ "--port"; "0"; "--metrics-port"; "0" ]
          @ List.concat_map
              (fun (s : Procs.t) -> [ "--shard"; Printf.sprintf "127.0.0.1:%d" s.Procs.port ])
              shards)
      in
      Procs.wait_ready router;
      { front = router; backends = shards }

let stop_servers s = List.iter Procs.stop (List.rev (serving s))

(* Closed loop: each client sends its next request only after the reply
   to the previous one. The window ends at [t_end]; a workload with a
   fixed pass only stops on a pass boundary, and at least
   [min_requests] are sent even past the window. *)
let drive (w : W.t) ~seed ~conns ~t_start ~t_end ~min_requests =
  let results = Array.make (Array.length conns) [] in
  let client c =
    let rec loop i acc =
      let at_boundary = match w.W.pass with Some p -> i mod p = 0 | None -> true in
      if i >= min_requests && at_boundary && Unix.gettimeofday () >= t_end then acc
      else
        let req = w.W.stream ~seed ~client:c i in
        let t0 = Unix.gettimeofday () in
        let status, body =
          match Client.request conns.(c) req.W.text with
          | r -> (Some r.Protocol.status, r.Protocol.body)
          | exception e -> (None, Printexc.to_string e)
        in
        let t1 = Unix.gettimeofday () in
        let s = { client = c; index = i; req; rtt = t1 -. t0; finish = t1 -. t_start; status; body } in
        if status = None then s :: acc else loop (i + 1) (s :: acc)
    in
    results.(c) <- List.rev (loop 0 [])
  in
  (* one domain per client: no runtime-lock handoffs between clients *)
  let domains = Array.mapi (fun c _ -> Domain.spawn (fun () -> client c)) conns in
  Array.iter Domain.join domains;
  results

(* ---- reference answers ------------------------------------------------ *)

type check = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;
  mutable gap_max : float;
}

let note_failure chk what =
  chk.failed <- chk.failed + 1;
  if List.length chk.mismatches < 5 then chk.mismatches <- what :: chk.mismatches

(* Re-validate a reference package: map the rendered ids back to
   candidate rows and run the compiled validity check. For sketch
   sessions also run SketchRefine itself for the certified gap. *)
let validate_package chk db ~sketch text reference =
  match Pb_paql.Parser.parse text with
  | exception Pb_paql.Parser.Parse_error msg -> note_failure chk ("paql parse: " ^ msg)
  | query ->
      let c = Pb_core.Coeffs.make db query in
      let ids = package_ids reference in
      let id_col =
        Pb_relation.Schema.index_of_exn
          (Pb_relation.Relation.schema c.Pb_core.Coeffs.candidates)
          (query.Pb_paql.Ast.input_alias ^ ".id")
      in
      let index_of_id = Hashtbl.create 1024 in
      Array.iteri
        (fun i row ->
          match Pb_relation.Value.to_int row.(id_col) with
          | Some id -> Hashtbl.replace index_of_id id i
          | None -> ())
        (Pb_relation.Relation.rows c.Pb_core.Coeffs.candidates);
      let indices = List.filter_map (Hashtbl.find_opt index_of_id) ids in
      let pkg =
        Pb_paql.Package.of_indices c.Pb_core.Coeffs.candidates
          ~alias:query.Pb_paql.Ast.package_alias indices
      in
      if ids = [] || List.length indices <> List.length ids || not (Pb_core.Coeffs.check c pkg)
      then note_failure chk ("reference package fails Coeffs.check: " ^ text);
      if sketch then begin
        let o =
          Pb_core.Sketch_refine.search ~params:Pb_core.Sketch_refine.default_params
            ~pool:(Pb_par.Pool.get_default ()) ~gov:(Pb_util.Gov.create ()) c
        in
        match o.Pb_core.Sketch_refine.gap with
        | Some g -> chk.gap_max <- Float.max chk.gap_max g
        | None -> note_failure chk ("no certified gap: " ^ text)
      end

(* Compare every served answer with Repl.handle on the reference tables.
   The router workload replays client 0's requests, then client 1's:
   their writes commute and each read sees only untouched rows or the
   reader's own key range, so a read's answer depends on its text and
   on how many writes its own client has made, which is the memo key
   (read-only workloads never write, so text alone). Writes always run. *)
let check_answers chk ~ref_state ~sketch results =
  let memo = Hashtbl.create 64 in
  let writes = Array.make (Array.length results) 0 in
  let reference (s : sample) =
    let compute () = mask (Pb_shell.Repl.handle ref_state s.req.W.text).Pb_shell.Repl.output in
    if s.req.W.kind = W.Write then begin
      writes.(s.client) <- writes.(s.client) + 1;
      compute ()
    end
    else
      let key = (s.req.W.text, s.client, writes.(s.client)) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r = compute () in
          Hashtbl.replace memo key r;
          r
  in
  let validated = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun s ->
         chk.attempted <- chk.attempted + 1;
         let expected = reference s in
         (match s.status with
         | Some Protocol.Ok ->
             if mask s.body <> expected then
               note_failure chk
                 (Printf.sprintf "client %d request %d answered differently: %s" s.client
                    s.index s.req.W.text)
         | Some st ->
             note_failure chk
               (Printf.sprintf "%s status for: %s" (Protocol.status_to_string st) s.req.W.text)
         | None -> note_failure chk ("transport error: " ^ s.body));
         if s.req.W.kind = W.Paql && not (Hashtbl.mem validated s.req.W.text) then begin
           Hashtbl.replace validated s.req.W.text ();
           validate_package chk (Pb_shell.Repl.database ref_state) ~sketch s.req.W.text expected
         end))
    results

(* ---- output ------------------------------------------------------------ *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"

let metric_json (name, unit, v) =
  (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ])

let git_rev () =
  let read path = String.trim (Procs.read_file path) in
  let head = read ".git/HEAD" in
  if String.length head > 5 && String.sub head 0 5 = "ref: " then
    let r = read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) in
    if r = "" then "unknown" else r
  else if head = "" then "unknown"
  else head

let nproc () =
  List.length
    (List.filter
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
       (String.split_on_char '\n' (Procs.read_file "/proc/cpuinfo")))

(* ---- one run ------------------------------------------------------------ *)

type setup = {
  setup_s : float;  (** median over the repeats *)
  tables : (string * string) list;
  servers : servers;
  conns : Client.t array;
}

(* Data generation, server start, ready and connected; repeated and
   reported as a median, the last set-up staying up for the run. *)
let set_up ~bin ~work ~seed ~repeats (w : W.t) =
  let once () =
    let t0 = Unix.gettimeofday () in
    let tables = Datagen.generate ~seed ~dir:work w.W.tables in
    let servers = start_servers ~bin ~work w tables in
    let conns = Array.init w.W.clients (fun _ -> Client.connect ~port:servers.front.Procs.port ()) in
    { setup_s = Unix.gettimeofday () -. t0; tables; servers; conns }
  in
  let rec loop k times =
    let s = once () in
    if k = repeats then { s with setup_s = median (s.setup_s :: times) }
    else begin
      Array.iter Client.close s.conns;
      stop_servers s.servers;
      loop (k + 1) (s.setup_s :: times)
    end
  in
  loop 1 []

(* Counter scrapes: a single server over client 0's connection, the
   router over its HTTP endpoint, shards over a short-lived connection
   each. Front end first. *)
let scrape_all st =
  (if st.servers.front.Procs.metrics_port > 0 then
     Scrape.fetch_http st.servers.front.Procs.metrics_port
   else Scrape.fetch st.conns.(0))
  :: List.map
       (fun (p : Procs.t) -> Client.with_connection ~port:p.Procs.port Scrape.fetch)
       st.servers.backends

(* Workload-wide round-trip figures: the median over [slices] equal
   sub-windows when each holds at least 100 requests (a slow episode then
   moves one slice, not the result), else pooled over the window. *)
let slices = 5

let overall ~window ok ~per_slice ~pooled =
  let by_slice = Array.make slices [] in
  List.iter
    (fun s ->
      let i = min (slices - 1) (truncate (s.finish /. window *. float_of_int slices)) in
      by_slice.(i) <- s.rtt :: by_slice.(i))
    ok;
  if Array.for_all (fun l -> List.length l >= 100) by_slice then
    median (Array.to_list (Array.map per_slice by_slice))
  else pooled

(* Percentile with its sample count and the samples beyond it. *)
let percentile name q xs =
  let v, beyond = quantile q xs in
  (name, v, List.length xs, beyond)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* Per-layer metrics of a traced run: counter deltas over the window plus
   the in-process replay of the same requests (Layers). *)
let layer_metrics (w : W.t) st ~sketch ~before ~after ~rss results =
  let all = List.concat (Array.to_list results) in
  let delta = Scrape.delta ~before ~after in
  let front_delta name = Scrape.get (List.hd after) name -. Scrape.get (List.hd before) name in
  let request_seconds field =
    sum (fun k -> front_delta (Printf.sprintf "pb_net_%s_request_seconds_%s" k field))
      [ "sql"; "paql"; "command" ]
  in
  let server_s = request_seconds "sum" and server_n = request_seconds "count" in
  let routed = w.W.topology <> W.Single in
  let shard_conns =
    Array.of_list
      (List.map (fun (p : Procs.t) -> Client.connect ~port:p.Procs.port ()) st.servers.backends)
  in
  let ctx = Layers.create ~db:(Datagen.load_db st.tables) ~sketch ~shards:shard_conns in
  Layers.reset ();
  List.iteri
    (fun index s -> Layers.replay ctx ~index ~routed:(routed && s.req.W.kind = W.Sql) s.req)
    all;
  Array.iter Client.close shard_conns;
  let selfs = Layers.self_times () in
  let self name = fst (Option.value (Hashtbl.find_opt selfs name) ~default:(0.0, 0)) in
  let count name = float_of_int (snd (Option.value (Hashtbl.find_opt selfs name) ~default:(0.0, 0))) in
  let roots = Layers.root_seconds () in
  let layered = roots -. self "request" in
  let n = float_of_int (List.length all) in
  let n_of k = float_of_int (List.length (List.filter (fun s -> s.req.W.kind = k) all)) in
  let n_sql = n_of W.Sql +. n_of W.Write and n_paql = n_of W.Paql and n_write = n_of W.Write in
  let rtt_total = sum (fun s -> s.rtt) all in
  let transport = rtt_total -. server_s in
  let reads = List.filter (fun s -> s.req.W.kind = W.Sql) all in
  let per = ratio in
  let c = ctx in
  [
    ("net.server_s", "s", per server_s server_n);
    ("net.transport_s", "s", per transport n);
    ("net.encode_s", "s", per (self "net.encode") n);
    ("net.assemble_s", "s", per (self "net.assemble") n);
    ("net.response_bytes", "bytes", per (sum (fun s -> float_of_int (String.length s.body)) all) n);
    ("net.wakeups_per_req", "count", per (delta "pb_net_eventloop_wakeups_total") n);
    ("sql.parse_s", "s", per (self "sql.parse") n_sql);
    ( "sql.plan_cache_hit_ratio",
      "ratio",
      per (delta "pb_sql_plan_cache_hits_total")
        (delta "pb_sql_plan_cache_hits_total" +. delta "pb_sql_plan_cache_misses_total") );
    ("sql.execute_s", "s", per (self "sql.execute") n_sql);
    ( "sql.rows_scanned_per_returned",
      "ratio",
      per (delta "pb_sql_rows_scanned_total") (delta "pb_sql_rows_returned_total") );
    ("store.image_build_s", "s", per c.Layers.image_seconds (float_of_int c.Layers.images_built));
    ( "store.images_built_per_write",
      "count",
      per (delta "pb_store_tables_built_total") (Float.max 1.0 n_write) );
    ("store.bytes_resident", "bytes", Scrape.total after "pb_store_bytes_resident");
    ("paql.parse_s", "s", per (self "paql.parse") n_paql);
    ("core.coeffs_s", "s", per (self "core.coeffs") n_paql);
    ("core.candidates", "count", per (float_of_int c.Layers.candidates) n_paql);
    ("core.partition_s", "s", per (self "core.partition.build") (count "core.partition.build"));
    ("core.sketch_s", "s", per (self "core.sketch") (float_of_int c.Layers.sketch_queries));
    ("core.refine_s", "s", per (self "core.refine") (float_of_int c.Layers.sketch_queries));
    ("core.partitions", "count", delta "pb_engine_sketch_partitions_total");
    ("core.refine_steps", "count", delta "pb_engine_sketch_refine_steps_total");
    ( "core.refined_share",
      "ratio",
      per (float_of_int c.Layers.refined_partitions) (float_of_int c.Layers.partitions_built) );
    ("lp.translate_s", "s", per (self "lp.translate") (count "lp.translate"));
    ("lp.milp_s", "s", per c.Layers.milp_seconds n_paql);
    ("lp.bb_nodes", "count", delta "pb_milp_nodes_total");
    ("lp.pivots", "count", delta "pb_lp_pivots_total");
    ("lp.s_per_pivot", "s", per c.Layers.milp_seconds c.Layers.pivots);
    ("shard.hop_s", "s", per c.Layers.hop_seconds (float_of_int c.Layers.hops));
    ("shard.hop_bytes", "bytes", per (float_of_int c.Layers.hop_bytes) (float_of_int c.Layers.hops));
    ("shard.hop_bytes_max", "bytes", float_of_int c.Layers.hop_bytes_max);
    ( "shard.router_self_s",
      "s",
      if routed then
        per (sum (fun s -> s.rtt) reads -. c.Layers.hop_seconds) (float_of_int (List.length reads))
      else 0.0 );
    ("shard.requests_per_req", "count", per (front_delta "pb_router_shard_requests_total") n);
    ( "shard.scanpull_share",
      "ratio",
      per (front_delta "pb_router_scanpull_total")
        (front_delta "pb_router_scanpull_total" +. front_delta "pb_router_merged_selects_total") );
    (* served time explained: replayed layer time plus transport, over
       round-trip time *)
    ("trace.coverage", "ratio", per (layered +. transport) rtt_total);
    ("trace.replay_minus_served_s", "s", per (roots -. server_s) n);
    ("server_rss_mb", "MB", rss);
  ]

let run ~workload ~seed ~seconds ~trace ~bin ~work =
  let w =
    match W.find workload with
    | Some w -> w
    | None ->
        failwith
          (Printf.sprintf "unknown workload %S (known: %s)" workload
             (String.concat ", " (List.map (fun w -> w.W.name) W.all)))
  in
  let work = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir work 0o755;
  (* generated tables and server logs are scratch; a failure carries the
     relevant log tail in its message *)
  Fun.protect
    ~finally:(fun () ->
      Procs.reap_all ();
      Array.iter (fun f -> Sys.remove (Filename.concat work f)) (Sys.readdir work);
      Unix.rmdir work)
  @@ fun () ->
  let repeats = if trace then 1 else setup_repeats in
  let st = set_up ~bin ~work ~seed ~repeats w in
  List.iter (fun text -> Array.iter (fun c -> ignore (Client.request c text)) st.conns) w.W.prelude;
  let sketch = List.mem "\\strategy sketch-refine" w.W.prelude in
  (* ---- timed window ---- *)
  let before = scrape_all st in
  let t_start = Unix.gettimeofday () in
  let results =
    (* a traced run of a pass workload replays exactly one pass *)
    drive w ~seed ~conns:st.conns ~t_start
      ~t_end:(if trace && w.W.pass <> None then t_start else t_start +. seconds)
      ~min_requests:(Option.value w.W.pass ~default:1)
  in
  let window = Unix.gettimeofday () -. t_start in
  let after = scrape_all st in
  List.iter Procs.check_alive (serving st.servers);
  let rss = sum Procs.peak_rss_mb (serving st.servers) in
  (* ---- answer checks (outside set-up and window) ---- *)
  let chk = { attempted = 0; failed = 0; mismatches = []; gap_max = 0.0 } in
  let ref_state = Pb_shell.Repl.create (Datagen.load_db st.tables) in
  List.iter (fun t -> ignore (Pb_shell.Repl.handle ref_state t)) w.W.prelude;
  check_answers chk ~ref_state ~sketch results;
  List.iter
    (fun text ->
      chk.attempted <- chk.attempted + 1;
      let expected = mask (Pb_shell.Repl.handle ref_state text).Pb_shell.Repl.output in
      match Client.request st.conns.(0) text with
      | r when r.Protocol.status = Protocol.Ok && mask r.Protocol.body = expected -> ()
      | _ -> note_failure chk ("final read differs from the single-node reference: " ^ text)
      | exception e -> note_failure chk ("final read failed: " ^ Printexc.to_string e))
    w.W.final_reads;
  let layers = if trace then layer_metrics w st ~sketch ~before ~after ~rss results else [] in
  (* ---- shutdown: every child must exit 0 on SIGTERM ---- *)
  Array.iter Client.close st.conns;
  stop_servers st.servers;
  (* ---- report ---- *)
  let all = List.concat (Array.to_list results) in
  let ok = List.filter (fun s -> s.status = Some Protocol.Ok) all in
  let rtts = List.map (fun s -> s.rtt) ok in
  let lat50 = percentile "latency_p50_s" 0.5 rtts and lat90 = percentile "latency_p90_s" 0.9 rtts in
  let sliced (name, pooled, _, _) q =
    (name, "s", overall ~window ok ~per_slice:(fun l -> fst (quantile q l)) ~pooled)
  in
  let e2e =
    [
      ("setup_s", "s", st.setup_s);
      ( "throughput_rps",
        "1/s",
        overall ~window ok
          ~per_slice:(fun l -> float_of_int (List.length l) /. (window /. float_of_int slices))
          ~pooled:(float_of_int (List.length ok) /. window) );
      sliced lat50 0.5;
      sliced lat90 0.9;
    ]
  in
  let kinds =
    List.concat_map
      (fun (k, label) ->
        match List.filter_map (fun s -> if s.req.W.kind = k then Some s.rtt else None) ok with
        | [] -> []
        | xs -> [ percentile (label ^ "_p50_s") 0.5 xs; percentile (label ^ "_p90_s") 0.9 xs ])
      [ (W.Sql, "sql"); (W.Write, "write"); (W.Paql, "paql") ]
  in
  let pass_times =
    match w.W.pass with
    | None -> []
    | Some p ->
        List.init (List.length results.(0) / p) (fun k ->
            sum (fun s -> s.rtt) (List.filter (fun s -> s.index / p = k) results.(0)))
  in
  let extra =
    [
      ("server_rss_mb", "MB", rss);
      ("error_share", "ratio", ratio (float_of_int chk.failed) (float_of_int (max 1 chk.attempted)));
      ("requests", "count", float_of_int (List.length all));
      ("window_s", "s", window);
    ]
    @ (if pass_times = [] then []
       else
         [
           ("paql_pass_s", "s", median pass_times);
           ("passes", "count", float_of_int (List.length pass_times));
         ])
    @ if sketch then [ ("paql_gap_max", "ratio", chk.gap_max) ] else []
  in
  let env name default = match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default in
  print_endline
    ("record "
    ^ json_obj
        [
          ("workload", json_string w.W.name);
          ("seed", string_of_int seed);
          ("trace", string_of_bool trace);
          ("nproc", string_of_int (nproc ()));
          ("ocaml", json_string Sys.ocaml_version);
          ("git_rev", json_string (git_rev ()));
          ("pb_store", json_string (env "PB_STORE" "columnar (default)"));
          ("pb_domains", json_string (env "PB_DOMAINS" "1 (default)"));
          ("data_fingerprint", json_string (Datagen.fingerprint st.tables));
          ( "servers",
            json_obj
              (List.map
                 (fun (p : Procs.t) -> (p.Procs.name, json_string (String.concat " " p.Procs.args)))
                 (serving st.servers)) );
          ("connections", string_of_int w.W.clients);
          ("setup_runs", string_of_int repeats);
          ( "percentiles",
            json_obj
              (List.map
                 (fun (name, v, samples, beyond) ->
                   ( name,
                     json_obj
                       [
                         ("value", json_float v);
                         ("unit", json_string "s");
                         ("samples", string_of_int samples);
                         ("beyond", string_of_int beyond);
                         ("thin_tail", string_of_bool (beyond < 10));
                       ] ))
                 (lat50 :: lat90 :: kinds)) );
          ("metrics", json_obj (List.map metric_json (e2e @ extra)));
          ("mismatches", json_list (List.map json_string (List.rev chk.mismatches)));
        ]);
  let correct = chk.failed = 0 in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int chk.attempted);
         ("failed", string_of_int chk.failed);
         ("metrics", json_obj (List.map metric_json (if trace then layers else e2e)));
       ]);
  if correct then 0 else 1

open Cmdliner

let cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed of the generated data and request streams.") in
  let seconds =
    Arg.(value & opt float 10.0 & info [ "seconds" ] ~docv:"S" ~doc:"Length of the timed window.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1 = report per-layer metrics from counter scrapes and a traced in-process replay.")
  in
  let bin =
    Arg.(required & opt (some string) None & info [ "bin" ] ~docv:"DIR" ~doc:"Directory holding pb_server.exe and pb_router.exe.")
  in
  let work =
    Arg.(required & opt (some string) None & info [ "work" ] ~docv:"DIR" ~doc:"Scratch directory for generated tables and server logs.")
  in
  let main workload seed seconds trace bin work =
    (* a terminated run still stops its servers (at_exit) *)
    List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
    match run ~workload ~seed ~seconds ~trace:(trace <> 0) ~bin ~work with
    | code -> code
    | exception Failure msg ->
        Procs.reap_all ();
        prerr_endline ("perfbench: " ^ msg);
        2
  in
  Cmd.v
    (Cmd.info "perfbench" ~doc:"Served PackageBuilder benchmark")
    Term.(const main $ workload $ seed $ seconds $ trace $ bin $ work)

let () = exit (Cmd.eval' cmd)
