(* Minimal HTTP/1.1 exposition endpoint: GET only, one response per
   connection, Connection: close.  Deliberately tiny — it exists so
   operators can scrape /metrics and /healthz without occupying the
   package-query wire protocol, not to be a web server.  Thread per
   connection, same select-polled accept loop and graceful stop shape
   as Pb_net.Server. *)

type response = { code : int; content_type : string; body : string }

type handler = string -> response option

type t = {
  listen : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  live : int Atomic.t;
  mutable accept_thread : Thread.t option;
  poll_interval : float;
}

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | _ -> "Unknown"

let write_response oc { code; content_type; body } =
  Printf.fprintf oc
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n"
    code (reason_phrase code) content_type (String.length body);
  output_string oc body;
  flush oc

let not_found = { code = 404; content_type = "text/plain"; body = "not found\n" }

(* "GET /path HTTP/1.1" -> `GET "/path"; tolerate a query string (it is
   dropped — no route here takes parameters). *)
let parse_request_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "GET"; target; _version ] ->
      let path =
        match String.index_opt target '?' with
        | Some i -> String.sub target 0 i
        | None -> target
      in
      `Get path
  | [ _; _; _ ] -> `Other
  | _ -> `Bad

let serve_connection handler fd =
  (* A scraper that connects and never sends a request line must not
     park this thread forever. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
   with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond r = try write_response oc r with Sys_error _ -> () in
  (try
     match input_line ic with
     | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
     | line -> (
         (* Drain headers up to the blank line; none are interpreted. *)
         (try
            while String.trim (input_line ic) <> "" do
              ()
            done
          with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
         match parse_request_line line with
         | `Bad ->
             respond
               { code = 400; content_type = "text/plain"; body = "bad request\n" }
         | `Other ->
             respond
               {
                 code = 405;
                 content_type = "text/plain";
                 body = "method not allowed\n";
               }
         | `Get path -> (
             match handler path with
             | Some r -> respond r
             | None -> respond not_found
             | exception _ ->
                 respond
                   {
                     code = 500;
                     content_type = "text/plain";
                     body = "internal error\n";
                   }))
   with Sys_error _ -> ());
  close_out_noerr oc

let listen_loop t handler =
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match Unix.select [ t.listen ] [] [] t.poll_interval with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ ->
          (match Unix.accept ~cloexec:true t.listen with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              Atomic.incr t.live;
              ignore
                (Thread.create
                   (fun () ->
                     Fun.protect
                       ~finally:(fun () -> Atomic.decr t.live)
                       (fun () -> serve_connection handler fd))
                   ()));
          loop ()
  in
  loop ()

let start ?(host = "127.0.0.1") ?(poll_interval = 0.05) ~port handler =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen Unix.SO_REUSEADDR true;
     Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen listen 16
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      listen;
      bound_port;
      stop = Atomic.make false;
      live = Atomic.make 0;
      accept_thread = None;
      poll_interval;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> listen_loop t handler) ());
  t

let port t = t.bound_port

let stop t =
  Atomic.set t.stop true;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  while Atomic.get t.live > 0 do
    Thread.delay 0.01
  done;
  try Unix.close t.listen with Unix.Unix_error _ -> ()
