(* The three workloads: tables, topology, and each client's request
   stream. A stream is a pure function of (seed, client, index), so the
   reference replay can regenerate exactly the requests a client sent. *)

type kind = Sql | Write | Paql

type req = { text : string; kind : kind }

type topology = Single | Routed of int  (** router in front of N shards *)

type t = {
  name : string;
  tables : Datagen.spec;
  topology : topology;
  clients : int;
  prelude : string list;  (** per-connection session setup, untimed *)
  pass : int option;
      (** requests per pass when the stream cycles a fixed list; the
          timed window then ends on a pass boundary *)
  stream : seed:int -> client:int -> int -> req;
  final_reads : string list;  (** router: checked after the window *)
}

let sql text = { text; kind = Sql }
let write text = { text; kind = Write }
let paql text = { text; kind = Paql }

(* Deterministic per-request generator: the same (seed, client, i)
   always yields the same draws. *)
let rng ~seed ~client i = Random.State.make [| seed; client; i; 0x5eed |]

(* ---- paql_sketch --------------------------------------------------- *)

(* One pass: two unfiltered package queries, the 7 and the 5 cheapest
   recipes under a calorie cap that the cheapest packages stay well
   inside. With the cap slack the refine MILPs stay integral (3 B&B
   nodes, one refine step on every seed tried), so partitioning carries
   the time, and the bound sketch leaves a certified gap (0.08-0.19).
   Binding caps and protein-maximising or filtered variants were left
   out: on some seeds their refine MILPs exhaust the 200k-node budget,
   minutes per query. *)
let sketch_pass =
  [|
    paql
      "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 7 AND \
       SUM(P.calories) <= 7000 MINIMIZE SUM(P.cost)";
    paql
      "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 5 AND \
       SUM(P.calories) <= 5000 MINIMIZE SUM(P.cost)";
  |]

let paql_sketch =
  {
    name = "paql_sketch";
    tables = { Datagen.recipes = 200_000; destinations = 0; stocks = 0 };
    topology = Single;
    clients = 1;
    prelude = [ "\\strategy sketch-refine" ];
    pass = Some (Array.length sketch_pass);
    stream = (fun ~seed:_ ~client:_ i -> sketch_pass.(i mod Array.length sketch_pass));
    final_reads = [];
  }

(* ---- interactive_mix ----------------------------------------------- *)

let cuisines =
  [| "italian"; "mexican"; "thai"; "indian"; "greek"; "japanese"; "american"; "moroccan" |]

(* The long analytic statement a user keeps re-running. *)
let analytic =
  "SELECT cuisine, gluten, COUNT(*), SUM(calories), MIN(protein), MAX(fat), \
   SUM(prep_minutes) FROM recipes WHERE calories BETWEEN 300 AND 900 AND \
   prep_minutes < 60 AND sugar < 40 GROUP BY cuisine, gluten HAVING COUNT(*) \
   > 5 ORDER BY cuisine, gluten"

(* Small package queries (one cuisine's rows, under ~0.05 s each),
   drawn from parameterised families so a run averages over many
   instances rather than depending on how hard three fixed ones happen
   to be for this seed's data. *)
let small_paql r =
  let cuisine = cuisines.(Random.State.int r (Array.length cuisines)) in
  if Random.State.bool r then
    Printf.sprintf
      "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.cuisine = '%s' SUCH THAT \
       COUNT(*) = 3 AND SUM(P.calories) <= %d MINIMIZE SUM(P.cost)"
      cuisine (1200 + (300 * Random.State.int r 4))
  else
    Printf.sprintf
      "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' AND \
       R.cuisine = '%s' SUCH THAT COUNT(*) = 2 AND SUM(P.protein) >= %d \
       MINIMIZE SUM(P.fat)"
      cuisine (40 + (10 * Random.State.int r 4))

let interactive_stream ~seed ~client i =
  let r = rng ~seed ~client i in
  (* The kind of request follows a fixed 32-slot cycle (client 1 half a
     cycle ahead), so every run has the same mix; only parameters are
     drawn. One request in 32 is a package query: enough for per-kind
     percentiles, few enough that their data-dependent solve time does
     not swamp the SQL path. *)
  let slot = (i + (16 * client)) mod 32 in
  match slot mod 16 with
  | 0 when slot = 0 -> paql (small_paql r)
  | 0 | 1 | 2 | 12 -> sql analytic
  | 3 ->
      sql
        "SELECT cuisine, COUNT(*), SUM(calories) FROM recipes GROUP BY \
         cuisine ORDER BY cuisine"
  | 4 ->
      sql
        (Printf.sprintf
           "SELECT COUNT(*) FROM recipes WHERE gluten = 'free' AND calories < %d"
           (300 + (50 * Random.State.int r 16)))
  | 5 ->
      sql
        (Printf.sprintf
           "SELECT id, name, protein FROM recipes WHERE fat < %d ORDER BY \
            protein DESC, id LIMIT 10"
           (5 + Random.State.int r 30))
  | 6 ->
      sql
        (Printf.sprintf
           "SELECT COUNT(*), MIN(calories), MAX(calories) FROM recipes WHERE \
            cuisine = '%s'"
           cuisines.(Random.State.int r (Array.length cuisines)))
  | 7 ->
      sql
        "SELECT kind, COUNT(*), MIN(price), MAX(price) FROM travel_items \
         GROUP BY kind ORDER BY kind"
  | 8 ->
      sql
        (Printf.sprintf
           "SELECT name, price FROM travel_items WHERE kind = 'hotel' AND \
            beach_distance < %d ORDER BY price, id LIMIT 5"
           (1 + Random.State.int r 5))
  | 9 ->
      sql
        "SELECT sector, COUNT(*), MIN(risk), MAX(expected_return) FROM stocks \
         GROUP BY sector ORDER BY sector"
  | 10 ->
      sql
        (Printf.sprintf
           "SELECT ticker, expected_return FROM stocks WHERE risk < 0.%d ORDER \
            BY expected_return DESC, id LIMIT 10"
           (2 + Random.State.int r 6))
  | 13 ->
      sql
        (Printf.sprintf
           "SELECT destination, COUNT(*), MIN(price) FROM travel_items WHERE \
            kind = '%s' GROUP BY destination ORDER BY destination LIMIT 10"
           (match Random.State.int r 3 with 0 -> "flight" | 1 -> "hotel" | _ -> "car"))
  | _ ->
      sql
        "SELECT gluten, COUNT(*), SUM(protein), SUM(fat) FROM recipes GROUP \
         BY gluten ORDER BY gluten"

let interactive_mix =
  {
    name = "interactive_mix";
    tables = { Datagen.recipes = 3_000; destinations = 50; stocks = 1_500 };
    topology = Single;
    clients = 2;
    prelude = [];
    pass = None;
    stream = interactive_stream;
    final_reads = [];
  }

(* ---- router_write_mix ---------------------------------------------- *)

(* Generated ids are below [key_base]; client c writes only ids in
   [key_base * (c + 1), key_base * (c + 2)), so the two clients' writes
   commute and every read below sees either untouched rows (id <
   key_base) or the reading client's own range only. *)
let key_base = 1_000_000

let own_lo client = key_base * (client + 1)
let own_hi client = own_lo client + key_base - 1

let router_stream ~seed ~client i =
  let r = rng ~seed ~client i in
  let lo = own_lo client and hi = own_hi client in
  (* request i inserts id lo + i when it is an insert; updates and
     deletes target ids this client may already have written *)
  let recent () = lo + Random.State.int r (i + 1) in
  (* Fixed 40-slot cycle, client 1 half a cycle ahead: four writes
     (two inserts, an update, a delete), one large scan-pull, the rest
     merged reads. With both clients about a fifth of requests are slow
     (a write, the read that rebuilds a shard's column image after it,
     the scan-pull), so the median stays among warm reads and p90 among
     rebuilds. *)
  let slot = (i + (20 * client)) mod 40 in
  match slot with
  | 0 | 20 ->
      write
        (Printf.sprintf
           "INSERT INTO recipes VALUES (%d, 'bench dish #%d', '%s', '%s', %d, \
            %d, %d, %d, %d, %.2f, %.1f, %d)"
           (lo + i) (lo + i)
           cuisines.(Random.State.int r (Array.length cuisines))
           (if Random.State.bool r then "free" else "full")
           (200 + Random.State.int r 900)
           (Random.State.int r 60) (Random.State.int r 50)
           (Random.State.int r 120) (Random.State.int r 60)
           (1.0 +. Random.State.float r 30.0)
           (1.0 +. Random.State.float r 4.0)
           (5 + Random.State.int r 90))
  | 10 ->
      let a = recent () in
      write
        (Printf.sprintf
           "UPDATE recipes SET calories = calories + 1 WHERE id BETWEEN %d AND %d"
           a (a + 5))
  | 30 ->
      let a = recent () in
      write (Printf.sprintf "DELETE FROM recipes WHERE id BETWEEN %d AND %d" a (a + 1))
  | 39 ->
      (* scan-pull with a large result: every shard ships its whole table
         (about 1 MB per hop at this scale) and the router orders it *)
      sql
        (Printf.sprintf
           "SELECT * FROM recipes WHERE id < %d AND cuisine = '%s' ORDER BY \
            calories DESC, id LIMIT 20"
           key_base
           cuisines.(Random.State.int r (Array.length cuisines)))
  | _ -> (
      match slot mod 8 with
      | 0 | 1 ->
          sql
            (Printf.sprintf
               "SELECT cuisine, COUNT(*), SUM(calories), MIN(protein), MAX(fat) \
                FROM recipes WHERE id < %d GROUP BY cuisine ORDER BY cuisine"
               key_base)
      | 2 ->
          sql
            (Printf.sprintf
               "SELECT gluten, COUNT(*), SUM(protein), MIN(calories), \
                MAX(calories) FROM recipes WHERE id < %d AND calories > %d GROUP \
                BY gluten ORDER BY gluten"
               key_base
               (200 + (100 * Random.State.int r 8)))
      | 3 | 4 ->
          sql
            (Printf.sprintf
               "SELECT COUNT(*), SUM(calories), MIN(id), MAX(id) FROM recipes \
                WHERE id BETWEEN %d AND %d"
               lo hi)
      | 5 ->
          sql
            (Printf.sprintf
               "SELECT cuisine, COUNT(*), MAX(calories) FROM recipes WHERE id \
                BETWEEN %d AND %d GROUP BY cuisine ORDER BY cuisine"
               lo hi)
      | _ ->
          sql
            (Printf.sprintf
               "SELECT cuisine, COUNT(*), MAX(protein) FROM recipes WHERE id < \
                %d AND fat < %d GROUP BY cuisine ORDER BY cuisine"
               key_base
               (3 + Random.State.int r 10)))

let router_write_mix =
  {
    name = "router_write_mix";
    tables = { Datagen.recipes = 50_000; destinations = 0; stocks = 0 };
    topology = Routed 2;
    clients = 2;
    prelude = [];
    pass = None;
    stream = router_stream;
    final_reads =
      [
        "SELECT COUNT(*), SUM(calories), SUM(protein), MIN(id), MAX(id) FROM recipes";
        "SELECT cuisine, gluten, COUNT(*), SUM(calories), MAX(fat) FROM recipes \
         GROUP BY cuisine, gluten ORDER BY cuisine, gluten";
        Printf.sprintf
          "SELECT id, name, calories, cost FROM recipes WHERE id >= %d ORDER BY \
           id LIMIT 40"
          key_base;
        Printf.sprintf
          "SELECT id, calories FROM recipes WHERE id >= %d ORDER BY calories \
           DESC, id LIMIT 20"
          (own_lo 1);
      ];
  }

let all = [ paql_sketch; interactive_mix; router_write_mix ]

let find name = List.find_opt (fun w -> w.name = name) all
