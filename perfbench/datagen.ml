(* Seeded table generation. The benchmark's seed is the only source of
   randomness: tables come from the Pb_workload generators driven by it
   and are written as CSV files the servers load with --table, so a
   server never sees --size or --seed. *)

module Relation = Pb_relation.Relation
module Value = Pb_relation.Value

let field = function
  | Value.Null -> ""
  | Value.Float f -> Printf.sprintf "%.12g" f
  | v -> Value.to_string v

let write_csv path rel =
  let oc = open_out_bin path in
  output_string oc
    (Pb_util.Csv.row_to_string (Pb_relation.Schema.names (Relation.schema rel)));
  output_char oc '\n';
  Array.iter
    (fun row ->
      output_string oc
        (Pb_util.Csv.row_to_string (Array.to_list (Array.map field row)));
      output_char oc '\n')
    (Relation.rows rel);
  close_out oc

type spec = { recipes : int; destinations : int; stocks : int }

(* Mix the benchmark seed into one generator seed per table. *)
let table_seed seed salt = (seed * 1_000_003) + salt

(* Generate every table of [spec] into [dir]; returns (name, path). *)
let generate ~seed ~dir spec =
  let out name rel =
    let path = Filename.concat dir (name ^ ".csv") in
    write_csv path rel;
    (name, path)
  in
  let w = Pb_workload.Workload.recipes ~seed:(table_seed seed 1) ~n:spec.recipes () in
  out "recipes" w
  :: (if spec.destinations > 0 then
        [
          out "travel_items"
            (Pb_workload.Workload.travel_items ~seed:(table_seed seed 2)
               ~n_destinations:spec.destinations ());
        ]
      else [])
  @
  if spec.stocks > 0 then
    [
      out "stocks"
        (Pb_workload.Workload.stocks ~seed:(table_seed seed 3) ~n:spec.stocks ());
    ]
  else []

(* Content fingerprint of the generated files, for the run record and
   the seed-discipline test (different seeds must give different data). *)
let fingerprint tables =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun (_, path) -> Digest.to_hex (Digest.file path)) tables)))

let load_db tables =
  let db = Pb_sql.Database.create () in
  List.iter (fun (name, path) -> Pb_sql.Database.load_csv db ~name path) tables;
  db
