(* Counter scrapes: a server's "\metrics" reply (Prometheus text) as a
   name -> value map, and before/after deltas over a timed window. *)

type t = (string, float) Hashtbl.t

let parse text : t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.split_on_char ' ' (String.trim line) with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some f -> Hashtbl.replace h name f
            | None -> ())
        | _ -> ())
    (String.split_on_char '\n' text);
  h

let get (m : t) name = Option.value (Hashtbl.find_opt m name) ~default:0.0

let fetch conn =
  let r = Pb_net.Client.request conn "\\metrics" in
  if r.Pb_net.Protocol.status <> Pb_net.Protocol.Ok then
    failwith ("\\metrics answered " ^ Pb_net.Protocol.status_to_string r.status);
  parse r.Pb_net.Protocol.body

(* GET /metrics from a --metrics-port endpoint (pb_router has no
   "\\metrics" command; it exports the same registry over HTTP). *)
let fetch_http port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Pb_net.Client.write_all sock
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec loop () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
      in
      loop ();
      let resp = Buffer.contents buf in
      let rec body_start i =
        if i + 4 > String.length resp then failwith "metrics endpoint: no HTTP body"
        else if String.sub resp i 4 = "\r\n\r\n" then i + 4
        else body_start (i + 1)
      in
      let b = body_start 0 in
      parse (String.sub resp b (String.length resp - b)))

(* Summed over several processes (router + shards). *)
let delta ~before ~after name =
  List.fold_left2 (fun acc b a -> acc +. (get a name -. get b name)) 0.0 before after

let total snapshots name =
  List.fold_left (fun acc m -> acc +. get m name) 0.0 snapshots
