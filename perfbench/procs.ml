(* Child server processes: spawn, wait until ready, watch for crashes,
   stop with SIGTERM and insist on exit status 0. Every child is also
   registered for an [at_exit] sweep, so no server outlives the
   benchmark even when a run fails half-way. *)

type t = {
  name : string;  (** "pb_server", "shard0", "router" ... *)
  pid : int;
  log : string;  (** the child's stdout+stderr *)
  args : string list;  (** flags it was started with, for the run record *)
  mutable port : int;
  mutable metrics_port : int;  (** HTTP /metrics, when started with one *)
  mutable exited : Unix.process_status option;
}

let live : t list ref = ref []

let reap_all () =
  List.iter
    (fun p ->
      if p.exited = None then begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
        p.exited <- Some (Unix.WSIGNALED Sys.sigkill)
      end)
    !live;
  live := []

let () = at_exit reap_all

(* Whole file, read to EOF ([/proc] files report length 0). *)
let read_file path =
  match open_in_bin path with
  | ic ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
      in
      loop ();
      close_in ic;
      Buffer.contents buf
  | exception Sys_error _ -> ""

let spawn ~name ~exe ~log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull fd fd
  in
  Unix.close fd;
  Unix.close devnull;
  let p = { name; pid; log; args; port = 0; metrics_port = 0; exited = None } in
  live := p :: !live;
  p

let poll_exit p =
  (match p.exited with
  | Some _ -> ()
  | None -> (
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ -> ()
      | _, st -> p.exited <- Some st
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()));
  p.exited

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

let fail p what =
  failwith
    (Printf.sprintf "%s %s; log:\n%s" p.name what
       (let l = read_file p.log in
        if String.length l > 2000 then String.sub l (String.length l - 2000) 2000
        else l))

(* Block until the child has printed "<binary> ready"; take the ports
   from its "listening on HOST:PORT" and "metrics on http://HOST:PORT"
   lines. *)
let wait_ready ?(timeout = 120.0) p =
  let t_end = Unix.gettimeofday () +. timeout in
  let rec loop () =
    (match poll_exit p with
    | Some st -> fail p ("died before ready (" ^ describe_status st ^ ")")
    | None -> ());
    let log = read_file p.log in
    let lines = String.split_on_char '\n' log in
    let ready =
      List.exists
        (fun l ->
          let n = String.length l in
          n >= 6 && String.sub l (n - 6) 6 = " ready")
        lines
    in
    if ready then
      List.iter
        (fun l ->
          (match Scanf.sscanf l "%_s listening on %s@:%d" (fun _ port -> port) with
          | port -> p.port <- port
          | exception _ -> ());
          match Scanf.sscanf l "%_s metrics on http://%s@:%d" (fun _ port -> port) with
          | port -> p.metrics_port <- port
          | exception _ -> ())
        lines
    else if Unix.gettimeofday () > t_end then fail p "not ready in time"
    else begin
      Unix.sleepf 0.0005;
      loop ()
    end
  in
  loop ();
  if p.port = 0 then fail p "printed no port"

let check_alive p =
  match poll_exit p with
  | Some st -> fail p ("crashed (" ^ describe_status st ^ ")")
  | None -> ()

(* Peak resident set size in MiB (VmHWM), read while the child lives. *)
let peak_rss_mb p =
  let status = read_file (Printf.sprintf "/proc/%d/status" p.pid) in
  List.fold_left
    (fun acc l ->
      match Scanf.sscanf l "VmHWM: %d kB" (fun kb -> kb) with
      | kb -> float_of_int kb /. 1024.0
      | exception _ -> acc)
    0.0
    (String.split_on_char '\n' status)

(* SIGTERM, wait (bounded), require a clean exit 0. *)
let stop ?(timeout = 30.0) p =
  check_alive p;
  Unix.kill p.pid Sys.sigterm;
  let t_end = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match poll_exit p with
    | Some st -> st
    | None ->
        if Unix.gettimeofday () > t_end then begin
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid);
          p.exited <- Some (Unix.WSIGNALED Sys.sigkill);
          fail p "ignored SIGTERM"
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
  in
  let st = wait () in
  live := List.filter (fun q -> q != p) !live;
  match st with
  | Unix.WEXITED 0 -> ()
  | st -> fail p ("did not exit cleanly on SIGTERM (" ^ describe_status st ^ ")")
