module Repl = Pb_shell.Repl
module Metrics = Pb_obs.Metrics
module Slow_log = Pb_obs.Slow_log
module Trace = Pb_obs.Trace
module Trace_store = Pb_obs.Trace_store
module Progress = Pb_obs.Progress
module Http = Pb_obs.Http
module Gov = Pb_util.Gov

type config = {
  host : string;
  port : int;
  max_connections : int;
  max_inflight : int;
  max_queue : int;
  default_deadline : float option;
  poll_interval : float;
  plan_cache_capacity : int;
  trace_capacity : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7878;
    max_connections = 64;
    max_inflight = 64;
    max_queue = 128;
    default_deadline = None;
    poll_interval = 0.05;
    plan_cache_capacity = 128;
    trace_capacity = 256;
  }

type session_handler = gov:Gov.t -> string -> Repl.reaction

(* One connection as the event loop sees it. Only the loop thread reads
   or writes its mutable state; workers carry it through the job and
   completion queues as an opaque handle. *)
type conn = {
  c_fd : Unix.file_descr;
  c_asm : Assembler.t;
  c_out : string Queue.t;  (* encoded frames not yet fully written *)
  mutable c_head : int;  (* bytes of the head frame already written *)
  mutable c_busy : bool;
  mutable c_close_after_flush : bool;
  mutable c_closed : bool;
  c_counted : bool;  (* admitted (vs a reject still flushing) *)
  c_session : session_handler Lazy.t;
  (* interest bits currently registered with the poller *)
  mutable c_reg_read : bool;
  mutable c_reg_write : bool;
  (* interest bits wanted now *)
  mutable c_want_read : bool;
}

type t = {
  config : config;  (* clamped: [max_inflight >= 1], [max_queue >= 0] *)
  db : Pb_sql.Database.t;
  (* One prepared-plan cache for the whole server: sessions are per
     connection, but the cache (and the memos inside it) is thread-safe,
     so every connection benefits from statements any of them prepared. *)
  plan_cache : Pb_sql.Plan_cache.t;
  session_factory : t -> session_handler;
  listen : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  active : int Atomic.t;
  (* Admission: at most [max_inflight] requests evaluate on the worker
     pool while up to [max_queue] more wait in [jobs]; past both, a
     request is answered busy at once (backpressure, not unbounded
     buffering). [jobs] and [executing], under [jobs_mu], are the one
     record of load: the admission check, the gauges and [health_json]
     all read them. *)
  jobs : (conn * Protocol.request) Queue.t;
  mutable executing : int;
  mutable workers_stop : bool;
  jobs_mu : Mutex.t;
  jobs_nonempty : Condition.t;
  mutable loop_thread : Thread.t option;
  finish_mu : Mutex.t;
  mutable finished : bool;
}

(* ---- metrics --------------------------------------------------------- *)

let latency_buckets =
  [ 0.0005; 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 ]

let m_requests =
  Metrics.counter ~help:"requests received over the wire"
    "pb_net_requests_total"

let m_connections =
  Metrics.counter ~help:"connections admitted" "pb_net_connections_total"

let m_busy =
  Metrics.counter
    ~help:"requests or connections rejected with busy (admission queue or \
           connection limit full)"
    "pb_net_busy_rejections_total"

let m_cancelled =
  Metrics.counter
    ~help:"requests whose governance token was cancelled (deadline included)"
    "pb_net_cancelled_total"

let m_deadline =
  Metrics.counter ~help:"requests aborted past their deadline"
    "pb_net_deadline_exceeded_total"

let m_errors =
  Metrics.counter ~help:"protocol or internal request errors"
    "pb_net_errors_total"

let m_active =
  Metrics.gauge ~help:"currently admitted connections"
    "pb_net_active_connections"

let m_open =
  Metrics.gauge
    ~help:"connections registered with the event loop (admitted plus \
           rejects still flushing)"
    "pb_net_open_connections"

let m_wakeups =
  Metrics.counter ~help:"event-loop readiness wakeups"
    "pb_net_eventloop_wakeups_total"

let m_inflight =
  Metrics.gauge ~help:"requests currently evaluating"
    "pb_net_inflight_requests"

let m_queue_depth =
  Metrics.gauge ~help:"requests parked in the admission queue"
    "pb_net_queue_depth"

let m_paql_seconds =
  Metrics.histogram ~help:"wall time of PaQL requests"
    ~buckets:latency_buckets "pb_net_paql_request_seconds"

let m_sql_seconds =
  Metrics.histogram ~help:"wall time of SQL requests"
    ~buckets:latency_buckets "pb_net_sql_request_seconds"

let m_command_seconds =
  Metrics.histogram ~help:"wall time of backslash-command requests"
    ~buckets:latency_buckets "pb_net_command_request_seconds"

(* Same dispatch heuristic as the REPL, reduced to metrics granularity:
   backslash commands, PaQL (mentions the PACKAGE keyword), else SQL. *)
let latency_histogram text =
  let trimmed = String.trim text in
  if trimmed = "" || trimmed.[0] = '\\' then m_command_seconds
  else
    let upper = String.uppercase_ascii trimmed in
    let has_package =
      let kw = "PACKAGE" and n = String.length upper in
      let k = String.length kw in
      let rec scan i = i + k <= n && (String.sub upper i k = kw || scan (i + 1)) in
      scan 0
    in
    if has_package then m_paql_seconds else m_sql_seconds


let set_active_gauge t = Metrics.set m_active (float_of_int (Atomic.get t.active))

(* call with jobs_mu held, at every queue/executing transition *)
let job_gauges t =
  Metrics.set m_inflight (float_of_int t.executing);
  Metrics.set m_queue_depth (float_of_int (Queue.length t.jobs))

let busy_text t =
  Printf.sprintf
    "server busy: %d requests in flight and %d queued; retry later"
    t.config.max_inflight t.config.max_queue

(* ---- request handling ------------------------------------------------- *)

(* Deadlines are enforced cooperatively: each request evaluates under a
   fresh governance token carrying the deadline. Every engine and SQL
   loop polls the token, so an overrun request stops within a few
   hundred loop iterations of the deadline — it is cancelled, not
   abandoned: no worker thread keeps burning CPU behind the client's
   back (the v1 watchdog did exactly that), and the slot frees as soon
   as the cancelled evaluation returns its best incumbent. *)

(* Data mode: one SQL statement, executed straight against the shared
   database (no REPL session, no rendering) with the result encoded for
   the shard router. Uses the shared plan cache, so a router fanning
   the same rewritten statement out repeatedly hits prepared plans. *)
let run_data t ~gov text =
  let reaction output = Stdlib.Ok { Repl.output; quit = false } in
  match
    Pb_sql.Plan_cache.lookup t.plan_cache t.db
      ~parse:Pb_sql.Parser.parse_script text
  with
  | exception Pb_sql.Parser.Parse_error msg ->
      reaction (Wire_data.encode_error ~kind:"parse" msg)
  | statements, memo -> (
      match
        List.fold_left
          (fun _ stmt -> Some (Pb_sql.Executor.execute ~memo ~gov t.db stmt))
          None statements
      with
      | None -> reaction (Wire_data.encode_error ~kind:"parse" "empty statement")
      | Some result -> reaction (Wire_data.encode_result result)
      | exception Pb_sql.Executor.Eval_error msg ->
          reaction (Wire_data.encode_error ~kind:"eval" msg)
      | exception Failure msg -> reaction (Wire_data.encode_error ~kind:"eval" msg)
      | exception Gov.Interrupted _ ->
          (* the fate latched on the token downgrades the status below *)
          reaction ""
      | exception e -> Stdlib.Error e)

(* Returns (response, close_connection_after). *)
let handle_request t (session : session_handler) (req : Protocol.request) =
  Metrics.incr m_requests;
  let deadline =
    match req.Protocol.deadline with
    | Some _ as d -> d
    | None -> t.config.default_deadline
  in
  let gov = Gov.create ?deadline_in:deadline () in
  let start = Unix.gettimeofday () in
  (* Tracing: adopt the client's trace id (or mint one) as the root of
     this request's span tree, and record solver incumbents under the
     governance token's family so progress events survive the hop onto
     pool worker domains. Both are skipped entirely when the store is
     disabled ([trace_capacity = 0]) — evaluation then runs without any
     context and span creation stays on its two-atomic-load fast path. *)
  let tracing = t.config.trace_capacity > 0 in
  let trace_id =
    match req.Protocol.trace with
    | Some id -> id
    | None -> Protocol.fresh_trace_id ()
  in
  let run () =
    if req.Protocol.data then run_data t ~gov req.Protocol.text
    else
      match session ~gov req.Protocol.text with
      | reaction -> Ok reaction
      | exception e -> Error e
  in
  let outcome, spans, progress =
    if tracing then
      let (outcome, progress), spans =
        Trace.with_context ~trace_id (fun () ->
            Progress.with_recorder ~key:(Gov.family_id gov) run)
      in
      (outcome, spans, progress)
    else (run (), [], [])
  in
  let elapsed = Unix.gettimeofday () -. start in
  Metrics.observe (latency_histogram req.Protocol.text) elapsed;
  ignore (Slow_log.observe ~query:("net " ^ req.Protocol.text) ~elapsed);
  let resp, close_after =
    match outcome with
    | Ok reaction -> (
        let body = reaction.Repl.output in
        match Gov.fate gov with
        | None -> ({ Protocol.status = Protocol.Ok; body }, reaction.Repl.quit)
        | Some Gov.Deadline ->
            Metrics.incr m_deadline;
            Metrics.incr m_cancelled;
            let d = match deadline with Some d -> d | None -> 0.0 in
            ( {
                Protocol.status = Protocol.Deadline_exceeded;
                body =
                  Printf.sprintf
                    "request exceeded its %gs deadline (evaluation \
                     cancelled)\n%s"
                    d body;
              },
              reaction.Repl.quit )
        | Some reason ->
            Metrics.incr m_cancelled;
            ( {
                Protocol.status = Protocol.Cancelled;
                body =
                  Printf.sprintf "request cancelled (%s)\n%s"
                    (Gov.reason_to_string reason) body;
              },
              reaction.Repl.quit ))
    | Error e ->
        Metrics.incr m_errors;
        ( { Protocol.status = Protocol.Internal; body = Printexc.to_string e },
          false )
  in
  if tracing then
    Trace_store.add Trace_store.default
      {
        Trace_store.trace_id;
        started = start;
        elapsed;
        status = Protocol.status_to_string resp.Protocol.status;
        spans;
        progress;
      };
  (resp, close_after)

(* ---- health ----------------------------------------------------------- *)

(* Reads the counters admission checks, under the same lock. Admission
   bounds executing + queued jointly, so "no room left" is their sum at
   the combined limit. *)
let health_json t =
  Mutex.lock t.jobs_mu;
  let inflight = t.executing and queued = Queue.length t.jobs in
  Mutex.unlock t.jobs_mu;
  let c = t.config in
  let active = Atomic.get t.active in
  let status =
    if Atomic.get t.stop then "draining"
    else if
      inflight + queued >= c.max_inflight + c.max_queue
      || active >= c.max_connections
    then "saturated"
    else "ok"
  in
  Printf.sprintf
    "{\"status\":%S,\"inflight\":%d,\"max_inflight\":%d,\"queued\":%d,\
     \"max_queue\":%d,\"active_connections\":%d,\"max_connections\":%d}"
    status inflight c.max_inflight queued c.max_queue active
    c.max_connections

(* The server-level health command: answered before admission (a
   saturated server must still report itself saturated) and invisible to
   the REPL — the router uses it to aggregate per-shard health over the
   query wire without an HTTP hop. *)
let is_health_command text = String.trim text = "\\healthz"

(* ---- event loop ------------------------------------------------------- *)

(* One event-loop thread multiplexes every connection over a Poller:
   per-connection read bytes feed an incremental Assembler, complete
   requests go to the bounded job queue executed by [max_inflight] worker
   threads, and responses come back through a completion queue drained
   when a worker tickles the self-pipe. An idle connection costs its
   buffers — no thread, no stack.

   Invariants:
   - only the event-loop thread touches fds, the poller, the conn table
     and conn mutable state;
   - at most one request per connection is queued or executing
     ([c_busy]); while busy the connection's read interest is dropped,
     so pipelined frames wait in the assembler/kernel socket buffer;
   - write interest is registered exactly while [c_out] is nonempty; a
     connection closes only with [c_out] empty (or on error), so
     responses are never truncated by a local close;
   - [close_conn] is the only place a connection's fd is closed while
     the loop runs. *)
type es = {
  t : t;
  poller : Poller.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  completions : (conn * Protocol.response * bool) Queue.t;
  comp_mu : Mutex.t;
  scratch : Bytes.t;
}

let wake es =
  try ignore (Unix.write_substring es.wake_w "x" 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let worker es () =
  let t = es.t in
  let rec loop () =
    Mutex.lock t.jobs_mu;
    while Queue.is_empty t.jobs && not t.workers_stop do
      Condition.wait t.jobs_nonempty t.jobs_mu
    done;
    if Queue.is_empty t.jobs then Mutex.unlock t.jobs_mu
    else begin
      let conn, req = Queue.pop t.jobs in
      t.executing <- t.executing + 1;
      job_gauges t;
      Mutex.unlock t.jobs_mu;
      let resp, close_after =
        try handle_request t (Lazy.force conn.c_session) req
        with e ->
          Metrics.incr m_errors;
          ( { Protocol.status = Protocol.Internal; body = Printexc.to_string e },
            false )
      in
      Mutex.lock t.jobs_mu;
      t.executing <- t.executing - 1;
      job_gauges t;
      Mutex.unlock t.jobs_mu;
      Mutex.lock es.comp_mu;
      Queue.add (conn, resp, close_after) es.completions;
      Mutex.unlock es.comp_mu;
      wake es;
      loop ()
    end
  in
  loop ()

(* Queue a request for the worker pool if admission has room. *)
let try_enqueue t conn req =
  Mutex.lock t.jobs_mu;
  let room =
    t.executing + Queue.length t.jobs
    < t.config.max_inflight + t.config.max_queue
  in
  if room then begin
    Queue.add (conn, req) t.jobs;
    job_gauges t;
    Condition.signal t.jobs_nonempty
  end;
  Mutex.unlock t.jobs_mu;
  room

let set_open_gauge es =
  Metrics.set m_open (float_of_int (Hashtbl.length es.conns))

let update_interest es conn =
  if not conn.c_closed then begin
    let want_read = conn.c_want_read && not conn.c_close_after_flush in
    let want_write = not (Queue.is_empty conn.c_out) in
    if want_read <> conn.c_reg_read || want_write <> conn.c_reg_write then begin
      (try Poller.modify es.poller conn.c_fd ~read:want_read ~write:want_write
       with Unix.Unix_error _ -> ());
      conn.c_reg_read <- want_read;
      conn.c_reg_write <- want_write
    end
  end

let close_conn es conn =
  if not conn.c_closed then begin
    conn.c_closed <- true;
    Hashtbl.remove es.conns conn.c_fd;
    (try Poller.remove es.poller conn.c_fd with Unix.Unix_error _ -> ());
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    if conn.c_counted then begin
      Atomic.decr es.t.active;
      set_active_gauge es.t
    end;
    set_open_gauge es
  end

(* Queue one frame; writing happens in [flush_writes]. The frame is
   encoded as a single string so a response that fits the socket buffer
   leaves in one write. *)
let send conn payload =
  if not conn.c_closed then
    Queue.add
      (String.concat ""
         [ string_of_int (String.length payload); "\n"; payload ])
      conn.c_out

let respond conn resp = send conn (Protocol.encode_response resp)

(* Write queued frames until the socket would block. A partly written
   frame stays at the head with [c_head] marking the resume point, so a
   slow reader costs no copying beyond the bytes the kernel takes. *)
let flush_writes es conn =
  let rec go () =
    match Queue.peek_opt conn.c_out with
    | None -> ()
    | Some frame -> (
        let left = String.length frame - conn.c_head in
        match Unix.write_substring conn.c_fd frame conn.c_head left with
        | k when k = left ->
            ignore (Queue.pop conn.c_out);
            conn.c_head <- 0;
            go ()
        | k -> conn.c_head <- conn.c_head + k
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error _ ->
            (* peer is gone; drop the rest *)
            Queue.clear conn.c_out;
            conn.c_head <- 0;
            conn.c_close_after_flush <- true)
  in
  if not conn.c_closed then go ();
  if
    (not conn.c_closed) && conn.c_close_after_flush && Queue.is_empty conn.c_out
  then close_conn es conn

(* Decode and dispatch every complete frame the assembler holds,
   stopping as soon as a request goes in flight (strictly one at a time
   per connection). *)
let rec drain_frames es conn =
  if (not conn.c_closed) && (not conn.c_busy) && not conn.c_close_after_flush
  then
    match Assembler.next conn.c_asm with
    | `Awaiting -> ()
    | `Bad msg ->
        (* The stream is out of sync; report once and hang up. *)
        Metrics.incr m_errors;
        respond conn
          { Protocol.status = Protocol.Bad_request;
            body = "framing error: " ^ msg;
          };
        conn.c_close_after_flush <- true
    | `Frame payload ->
        (match Protocol.decode_client_frame payload with
        | Error msg ->
            Metrics.incr m_errors;
            respond conn { Protocol.status = Protocol.Bad_request; body = msg }
        | Ok (Protocol.Hello v) ->
            (* Answer with our version either way; on mismatch the client
               refuses to proceed, so hang up after telling it who we are. *)
            send conn (Protocol.encode_hello Protocol.version);
            if v <> Protocol.version then conn.c_close_after_flush <- true
        | Ok (Protocol.Req req) when is_health_command req.Protocol.text ->
            respond conn { Protocol.status = Protocol.Ok; body = health_json es.t }
        | Ok (Protocol.Req req) ->
            if try_enqueue es.t conn req then begin
              conn.c_busy <- true;
              (* Drop read interest while the request is in flight so a
                 pipelining client's bytes stay in the kernel socket
                 buffer (backpressure) instead of accumulating
                 unboundedly in the assembler. Restored on completion in
                 drain_completions. *)
              conn.c_want_read <- false
            end
            else begin
              Metrics.incr m_busy;
              respond conn
                { Protocol.status = Protocol.Busy; body = busy_text es.t }
            end);
        drain_frames es conn

let on_readable es conn =
  match Unix.read conn.c_fd es.scratch 0 (Bytes.length es.scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn es conn
  | 0 ->
      (* EOF. A busy connection finishes its request first (drain
         semantics); its completion path will notice the flag. *)
      if conn.c_busy then conn.c_close_after_flush <- true
      else close_conn es conn
  | n ->
      Assembler.feed conn.c_asm ~len:n (Bytes.unsafe_to_string es.scratch);
      drain_frames es conn

let drain_completions es =
  let batch =
    Mutex.lock es.comp_mu;
    let b = List.of_seq (Queue.to_seq es.completions) in
    Queue.clear es.completions;
    Mutex.unlock es.comp_mu;
    b
  in
  List.iter
    (fun (conn, resp, close_after) ->
      if not conn.c_closed then begin
        respond conn resp;
        conn.c_busy <- false;
        (* re-arm reads dropped at admission; drain_frames below may
           drop them again if a buffered frame goes straight in flight *)
        conn.c_want_read <- true;
        if close_after then conn.c_close_after_flush <- true;
        if Atomic.get es.t.stop then
          (* drain: one response per in-flight request, then close *)
          conn.c_close_after_flush <- true;
        if not conn.c_close_after_flush then drain_frames es conn;
        flush_writes es conn;
        update_interest es conn
      end)
    batch

let on_acceptable es =
  let rec loop () =
    match Unix.accept ~cloexec:true es.t.listen with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        Unix.set_nonblock fd;
        let counted, rejection =
          if Atomic.get es.t.stop then
            (false, Some (Protocol.Shutting_down, "server is shutting down"))
          else if Atomic.get es.t.active >= es.t.config.max_connections then begin
            Metrics.incr m_busy;
            ( false,
              Some
                ( Protocol.Busy,
                  Printf.sprintf "server busy: %d connections are live"
                    es.t.config.max_connections ) )
          end
          else (true, None)
        in
        let conn =
          {
            c_fd = fd;
            c_asm = Assembler.create ();
            c_out = Queue.create ();
            c_head = 0;
            c_busy = false;
            c_close_after_flush = rejection <> None;
            c_closed = false;
            c_counted = counted;
            c_session = lazy (es.t.session_factory es.t);
            c_reg_read = counted;
            c_reg_write = false;
            c_want_read = counted;
          }
        in
        Hashtbl.replace es.conns fd conn;
        (try Poller.add es.poller fd ~read:counted ~write:false
         with Unix.Unix_error _ -> ());
        if counted then begin
          Atomic.incr es.t.active;
          set_active_gauge es.t;
          Metrics.incr m_connections
        end
        else begin
          (match rejection with
          | Some (status, msg) -> respond conn { Protocol.status; body = msg }
          | None -> ());
          flush_writes es conn;
          if not conn.c_closed then update_interest es conn
        end;
        set_open_gauge es;
        loop ()
  in
  loop ()

(* Every fd the loop owns besides connections exists once this returns,
   so a started server's fd count is its idle baseline. *)
let loop_state t =
  let poller = Poller.create () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Unix.set_nonblock t.listen;
  Poller.add poller t.listen ~read:true ~write:false;
  Poller.add poller wake_r ~read:true ~write:false;
  {
    t;
    poller;
    conns = Hashtbl.create 1024;
    wake_r;
    wake_w;
    completions = Queue.create ();
    comp_mu = Mutex.create ();
    scratch = Bytes.create 65536;
  }

let run es =
  let t = es.t and poller = es.poller and wake_r = es.wake_r in
  let workers =
    List.init t.config.max_inflight (fun _ -> Thread.create (worker es) ())
  in
  let stopping = ref false in
  let drain_wake_pipe () =
    let b = Bytes.create 256 in
    let rec go () =
      match Unix.read wake_r b 0 256 with
      | exception Unix.Unix_error _ -> ()
      | 0 -> ()
      | 256 -> go ()
      | _ -> ()
    in
    go ()
  in
  let begin_stop () =
    stopping := true;
    (try Poller.remove poller t.listen with Unix.Unix_error _ -> ());
    (* close idle connections now; busy ones drain their request *)
    let idle =
      Hashtbl.fold
        (fun _ c acc ->
          if (not c.c_busy) && Queue.is_empty c.c_out then c :: acc else acc)
        es.conns []
    in
    List.iter (close_conn es) idle;
    Hashtbl.iter (fun _ c -> c.c_close_after_flush <- true) es.conns
  in
  let rec loop () =
    if Atomic.get t.stop && not !stopping then begin_stop ();
    let done_ =
      !stopping
      && Hashtbl.length es.conns = 0
      &&
      (Mutex.lock t.jobs_mu;
       let d = Queue.is_empty t.jobs && t.executing = 0 in
       Mutex.unlock t.jobs_mu;
       d)
    in
    if not done_ then begin
      let events = Poller.wait poller ~timeout:t.config.poll_interval in
      Metrics.incr m_wakeups;
      List.iter
        (fun { Poller.fd; readable; error; _ } ->
          if fd = t.listen then (if readable then on_acceptable es)
          else if fd = wake_r then begin
            drain_wake_pipe ();
            drain_completions es
          end
          else
            match Hashtbl.find_opt es.conns fd with
            | None -> ()
            | Some conn ->
                if error then
                  if conn.c_busy then conn.c_close_after_flush <- true
                  else close_conn es conn
                else begin
                  if readable then on_readable es conn;
                  (* one flush serves writability and any response the
                     read just queued *)
                  if not conn.c_closed then begin
                    flush_writes es conn;
                    update_interest es conn
                  end
                end)
        events;
      (* completions may land while we were handling events *)
      drain_completions es;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.jobs_mu;
      t.workers_stop <- true;
      Condition.broadcast t.jobs_nonempty;
      Mutex.unlock t.jobs_mu;
      List.iter Thread.join workers;
      Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) es.conns;
      Hashtbl.reset es.conns;
      (try Unix.close wake_r with Unix.Unix_error _ -> ());
      (try Unix.close es.wake_w with Unix.Unix_error _ -> ());
      Poller.close poller;
      Metrics.set m_open 0.0)
    loop

(* ---- lifecycle -------------------------------------------------------- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith ("Server: cannot resolve host " ^ host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found -> failwith ("Server: cannot resolve host " ^ host))

let default_session_factory t =
  let session = Repl.create ~cache:t.plan_cache t.db in
  fun ~gov text -> Repl.handle ~gov session text

let start ?(config = default_config) ?session_factory db =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen Unix.SO_REUSEADDR true;
     Unix.bind listen (Unix.ADDR_INET (resolve_host config.host, config.port));
     Unix.listen listen 1024
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let factory =
    match session_factory with
    | Some f -> f
    | None -> fun t -> default_session_factory t
  in
  let config =
    {
      config with
      max_inflight = max config.max_inflight 1;
      max_queue = max config.max_queue 0;
    }
  in
  let t =
    {
      config;
      db;
      plan_cache = Pb_sql.Plan_cache.create ~capacity:config.plan_cache_capacity ();
      session_factory = factory;
      listen;
      bound_port;
      stop = Atomic.make false;
      active = Atomic.make 0;
      jobs = Queue.create ();
      executing = 0;
      workers_stop = false;
      jobs_mu = Mutex.create ();
      jobs_nonempty = Condition.create ();
      loop_thread = None;
      finish_mu = Mutex.create ();
      finished = false;
    }
  in
  Trace_store.set_capacity Trace_store.default config.trace_capacity;
  t.loop_thread <- Some (Thread.create run (loop_state t));
  t

let port t = t.bound_port

(* ---- pull-based exposition -------------------------------------------- *)

let traces_prefix = "/traces/"

let http_handler t path =
  match path with
  | "/metrics" ->
      Some
        {
          Http.code = 200;
          content_type = "text/plain; version=0.0.4; charset=utf-8";
          body = Metrics.dump ();
        }
  | "/healthz" ->
      Some
        {
          Http.code = 200;
          content_type = "application/json";
          body = health_json t;
        }
  | "/traces" ->
      let ids = Trace_store.ids Trace_store.default in
      Some
        {
          Http.code = 200;
          content_type = "application/json";
          body =
            Printf.sprintf "{\"traces\":[%s]}"
              (String.concat "," (List.map (Printf.sprintf "%S") ids));
        }
  | _ ->
      let n = String.length traces_prefix in
      if String.length path > n && String.sub path 0 n = traces_prefix then
        let id = String.sub path n (String.length path - n) in
        match Trace_store.find Trace_store.default id with
        | Some entry ->
            Some
              {
                Http.code = 200;
                content_type = "application/json";
                body = Trace_store.to_json entry;
              }
        | None -> None
      else None

let request_stop t = Atomic.set t.stop true


let join t =
  Mutex.lock t.finish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.finish_mu)
    (fun () ->
      if not t.finished then begin
        (* the loop thread exits only once every connection has drained *)
        Option.iter Thread.join t.loop_thread;
        (try Unix.close t.listen with Unix.Unix_error _ -> ());
        t.finished <- true
      end)

let shutdown t =
  request_stop t;
  join t

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

let with_server ?config ?session_factory db f =
  let t = start ?config ?session_factory db in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
