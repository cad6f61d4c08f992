(* pb_router — shared-nothing front end for a set of pb_server shards.

     pb_server --port 7971 --shard 0/2 &
     pb_server --port 7972 --shard 1/2 &
     pb_router --port 7878 --shard 127.0.0.1:7971 --shard 127.0.0.1:7972

   Speaks wire v2 on both sides: clients connect exactly as they would
   to a pb_server; SQL fans out with partial-aggregate merge where the
   query allows it, PaQL runs as router-level sketch + shard-grouped
   refine. --metrics-port serves /metrics plus a /healthz that
   aggregates per-shard health. *)

open Cmdliner

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")

let port_arg =
  Arg.(
    value & opt int 7878
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"TCP port; 0 picks an ephemeral port (printed on startup).")

let shards_arg =
  Arg.(
    non_empty & opt_all string []
    & info [ "shard" ] ~docv:"HOST:PORT"
        ~doc:
          "Shard endpoint (repeatable, in order: the $(i,k)-th occurrence \
           is shard $(i,k) and must be the server started with \
           $(b,--shard) $(i,k)/N).")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N" ~doc:"Maximum live client connections.")

let max_inflight_arg =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Maximum requests evaluating concurrently.")

let max_queue_arg =
  Arg.(
    value & opt int 128
    & info [ "max-queue" ] ~docv:"N" ~doc:"Admission queue depth.")

let deadline_arg =
  Arg.(
    value & opt float 0.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request deadline; the remaining budget is \
           propagated to every shard hop. 0 disables the default.")

let connect_timeout_arg =
  Arg.(
    value & opt float 2.0
    & info [ "connect-timeout" ] ~docv:"SECONDS"
        ~doc:"Bound on each shard TCP connect (and health probe). 0 = none.")

let metrics_port_arg =
  Arg.(
    value & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve GET /metrics (including per-shard fan-out latency \
           histograms) and /healthz (aggregated per-shard health) over \
           HTTP/1.1 on this port; 0 picks an ephemeral one.")

let parse_endpoint spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some port when host <> "" -> (host, port)
      | _ -> failwith (Printf.sprintf "--shard expects HOST:PORT, got %S" spec))
  | None -> failwith (Printf.sprintf "--shard expects HOST:PORT, got %S" spec)

let serve host port shards max_conns max_inflight max_queue deadline
    connect_timeout metrics_port =
  let shards = Array.of_list (List.map parse_endpoint shards) in
  let connect_timeout =
    if connect_timeout > 0.0 then Some connect_timeout else None
  in
  let local = Pb_sql.Database.create () in
  let router =
    match Pb_shard.Router.create ?connect_timeout ~shards local with
    | r -> r
    | exception Failure msg ->
        Printf.eprintf "pb_router: %s\n" msg;
        exit 1
  in
  let config =
    {
      Pb_net.Server.default_config with
      host;
      port;
      max_connections = max_conns;
      max_inflight;
      max_queue;
      default_deadline = (if deadline > 0.0 then Some deadline else None);
      plan_cache_capacity = 0;
    }
  in
  let server =
    Pb_net.Server.start ~config
      ~session_factory:(Pb_shard.Router.session_factory router)
      local
  in
  Pb_net.Server.install_signal_handlers server;
  Printf.printf "pb_router listening on %s:%d (pid %d, %d shards)\n" host
    (Pb_net.Server.port server) (Unix.getpid ()) (Array.length shards);
  let http =
    match metrics_port with
    | Some p ->
        let handler path =
          if path = "/healthz" then
            Some
              {
                Pb_obs.Http.code = 200;
                content_type = "application/json";
                body = Pb_shard.Router.health_json router;
              }
          else Pb_net.Server.http_handler server path
        in
        let h = Pb_obs.Http.start ~host ~port:p handler in
        Printf.printf "pb_router metrics on http://%s:%d\n" host
          (Pb_obs.Http.port h);
        Some h
    | None -> None
  in
  print_string "pb_router ready\n";
  flush stdout;
  Pb_net.Server.join server;
  Option.iter Pb_obs.Http.stop http;
  Pb_shard.Router.close router;
  print_endline "pb_router stopped";
  flush stdout

let cmd =
  let term =
    Term.(
      const serve $ host_arg $ port_arg $ shards_arg $ max_conns_arg
      $ max_inflight_arg $ max_queue_arg $ deadline_arg $ connect_timeout_arg
      $ metrics_port_arg)
  in
  Cmd.v
    (Cmd.info "pb_router" ~version:"1.0.0"
       ~doc:"Shared-nothing router over pb_server shards (wire v2 both ways)")
    term

let () = exit (Cmd.eval cmd)
