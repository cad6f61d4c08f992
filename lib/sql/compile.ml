open Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Trace = Pb_obs.Trace

exception Eval_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* LIKE pattern matching with % (any sequence) and _ (any char), by
   two-pointer backtracking on the last %. This is the reference matcher;
   the compiled form below tokenizes the pattern once and runs the same
   backtracking over the token array. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go p i star_p star_i =
    if i = ns then
      (* consume trailing %s *)
      let rec only_percent p = p = np || (pattern.[p] = '%' && only_percent (p + 1)) in
      if only_percent p then true
      else if star_p >= 0 && star_i < ns then
        go (star_p + 1) (star_i + 1) star_p (star_i + 1)
      else false
    else if p < np && pattern.[p] = '%' then go (p + 1) i p i
    else if p < np && (pattern.[p] = '_' || pattern.[p] = s.[i]) then
      go (p + 1) (i + 1) star_p star_i
    else if star_p >= 0 then go (star_p + 1) (star_i + 1) star_p (star_i + 1)
    else false
  in
  go 0 0 (-1) (-1)

type like_tok = Any_seq | Any_one | Exactly of char

type like_pattern = like_tok array

let compile_like pattern =
  Array.init (String.length pattern) (fun i ->
      match pattern.[i] with
      | '%' -> Any_seq
      | '_' -> Any_one
      | c -> Exactly c)

let like_match_compiled toks s =
  let np = Array.length toks and ns = String.length s in
  let rec go p i star_p star_i =
    if i = ns then
      let rec only_percent p = p = np || (toks.(p) = Any_seq && only_percent (p + 1)) in
      if only_percent p then true
      else if star_p >= 0 && star_i < ns then
        go (star_p + 1) (star_i + 1) star_p (star_i + 1)
      else false
    else if p < np && toks.(p) = Any_seq then go (p + 1) i p i
    else if
      p < np
      && (match toks.(p) with
         | Any_one -> true
         | Exactly c -> c = s.[i]
         | Any_seq -> false)
    then go (p + 1) (i + 1) star_p star_i
    else if star_p >= 0 then go (star_p + 1) (star_i + 1) star_p (star_i + 1)
    else false
  in
  go 0 0 (-1) (-1)

(* [scalar_function_lc] assumes the name is already lowercased — the
   compiler lowercases once per Func node instead of once per row. Error
   messages are unchanged: the interpreter's message also uses the
   lowercased name. *)
let scalar_function_lc lname args =
  match (lname, args) with
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "abs", [ Value.Null ] -> Value.Null
  | "lower", [ Value.Str s ] -> Value.Str (String.lowercase_ascii s)
  | "upper", [ Value.Str s ] -> Value.Str (String.uppercase_ascii s)
  | "length", [ Value.Str s ] -> Value.Int (String.length s)
  | ("lower" | "upper" | "length"), [ Value.Null ] -> Value.Null
  | "round", [ v ] -> (
      match Value.to_float v with
      | Some f -> Value.Int (int_of_float (Float.round f))
      | None -> Value.Null)
  | "floor", [ v ] -> (
      match Value.to_float v with
      | Some f -> Value.Int (int_of_float (Float.floor f))
      | None -> Value.Null)
  | "ceil", [ v ] -> (
      match Value.to_float v with
      | Some f -> Value.Int (int_of_float (Float.ceil f))
      | None -> Value.Null)
  | "coalesce", vs -> (
      match List.find_opt (fun v -> v <> Value.Null) vs with
      | Some v -> v
      | None -> Value.Null)
  | "sqrt", [ v ] -> (
      match Value.to_float v with
      | Some f when f >= 0.0 -> Value.Float (sqrt f)
      | _ -> Value.Null)
  | name, args -> err "unknown function %s/%d" name (List.length args)

let scalar_function name args =
  scalar_function_lc (String.lowercase_ascii name) args

let binop_value op a b =
  match op with
  | Add -> Value.add a b
  | Sub -> Value.sub a b
  | Mul -> Value.mul a b
  | Div -> Value.div a b
  | Eq -> Value.cmp_bool (fun c -> c = 0) a b
  | Neq -> Value.cmp_bool (fun c -> c <> 0) a b
  | Lt -> Value.cmp_bool (fun c -> c < 0) a b
  | Le -> Value.cmp_bool (fun c -> c <= 0) a b
  | Gt -> Value.cmp_bool (fun c -> c > 0) a b
  | Ge -> Value.cmp_bool (fun c -> c >= 0) a b
  | And -> Value.logical_and a b
  | Or -> Value.logical_or a b

type fallback = Value.t array -> Ast.expr -> Value.t

(* The interpreter evaluates n-ary nodes in a specific order (OCaml's
   right-to-left function-argument order for Binop/Between, left-to-right
   List traversal elsewhere). The compiled closures pin the same order with
   explicit lets so that when two subexpressions both raise, the surfaced
   exception is the interpreter's — part of the bit-identical contract.

   No span here: a single expression compiles in microseconds and this
   runs everywhere (including before a query's root span opens); the
   traced compile is the memoized one below, which sits inside a
   statement's span tree. *)
let rec expr ~fallback schema e : Value.t array -> Value.t =
  let c e = expr ~fallback schema e in
  match e with
  | Lit v -> fun _row -> v
  | Col name -> (
      match Schema.index_of schema name with
      | Some i -> fun row -> row.(i)
      | None ->
          (* Unknown/ambiguous column: defer the interpreter's Failure to
             first invocation, so compiling against an empty input does not
             raise where the interpreter would not have evaluated at all. *)
          fun row -> row.(Schema.index_of_exn schema name))
  | Unary_minus e ->
      let ce = c e in
      fun row -> Value.neg (ce row)
  | Not e ->
      let ce = c e in
      fun row -> Value.logical_not (ce row)
  | Binop (op, a, b) ->
      let ca = c a and cb = c b in
      fun row ->
        let vb = cb row in
        let va = ca row in
        binop_value op va vb
  | Between (e, lo, hi) ->
      let ce = c e and clo = c lo and chi = c hi in
      fun row ->
        let v = ce row in
        let upper = Value.cmp_bool (fun c -> c <= 0) v (chi row) in
        let lower = Value.cmp_bool (fun c -> c >= 0) v (clo row) in
        Value.logical_and lower upper
  | In_list (e, items, neg) ->
      let ce = c e and citems = List.map c items in
      fun row ->
        let v = ce row in
        let hit = List.exists (fun ci -> Value.equal v (ci row)) citems in
        Value.Bool (if neg then not hit else hit)
  | In_query _ | Exists _ ->
      (* Subqueries keep the interpreter: they re-enter [select], which may
         be correlated with the database and is not row-local. *)
      fun row -> fallback row e
  | Is_null (e, neg) ->
      let ce = c e in
      fun row ->
        let null = Value.is_null (ce row) in
        Value.Bool (if neg then not null else null)
  | Like (e, pattern, neg) ->
      let ce = c e in
      let toks = compile_like pattern in
      fun row -> (
        match ce row with
        | Value.Null -> Value.Null
        | Value.Str s ->
            let hit = like_match_compiled toks s in
            Value.Bool (if neg then not hit else hit)
        | v -> err "LIKE on non-string value %s" (Value.to_string v))
  | Agg (f, _) -> fun _row -> err "aggregate %s outside GROUP context" (agg_to_string f)
  | Func (name, args) ->
      let lname = String.lowercase_ascii name in
      (* args evaluate left-to-right, as in the interpreter's List.map *)
      (match List.map c args with
      | [ ca ] -> fun row -> scalar_function_lc lname [ ca row ]
      | [ ca; cb ] ->
          fun row ->
            let va = ca row in
            let vb = cb row in
            scalar_function_lc lname [ va; vb ]
      | cargs ->
          fun row -> scalar_function_lc lname (List.map (fun ca -> ca row) cargs))
  | Case (branches, default) ->
      let cbranches = List.map (fun (cond, v) -> (c cond, c v)) branches in
      let cdefault = Option.map c default in
      fun row ->
        let rec walk = function
          | [] -> ( match cdefault with Some ce -> ce row | None -> Value.Null)
          | (ccond, cval) :: rest ->
              if Value.truthy (ccond row) then cval row else walk rest
        in
        walk cbranches

module Memo = struct
  type key = Ast.expr * Schema.column list

  type t = {
    mu : Mutex.t;
    tbl : (key, Value.t array -> Value.t) Hashtbl.t;
  }

  let create () = { mu = Mutex.create (); tbl = Hashtbl.create 32 }

  let size t =
    Mutex.lock t.mu;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.mu;
    n

  let memoized t ~fallback schema e =
    let key = (e, Schema.columns schema) in
    Mutex.lock t.mu;
    match Hashtbl.find_opt t.tbl key with
    | Some f ->
        Mutex.unlock t.mu;
        f
    | None ->
        Mutex.unlock t.mu;
        (* Compile outside the lock; on a race the first insert wins so all
           callers share one closure. *)
        let f =
          Trace.with_span ~name:"sql.compile" (fun () ->
              expr ~fallback schema e)
        in
        Mutex.lock t.mu;
        let f =
          match Hashtbl.find_opt t.tbl key with
          | Some g -> g
          | None ->
              Hashtbl.add t.tbl key f;
              f
        in
        Mutex.unlock t.mu;
        f

  (* A subquery closure holds its caller's fallback, which carries that
     request's governance token; it must not outlive the request, so such
     expressions are compiled afresh on every call. *)
  let expr t ~fallback schema e =
    if Ast.has_subquery e then expr ~fallback schema e
    else memoized t ~fallback schema e
end
