module Ast = Pb_sql.Ast
module Shape = Pb_sql.Shape

type plan = {
  partial : Ast.select;
  scratch : string;
  final : Ast.select;
}

let scratch_name = "__partials"

(* ---- expression walks ------------------------------------------------- *)

let rec collect_aggs acc (e : Ast.expr) =
  match e with
  | Ast.Agg _ ->
      if List.exists (fun a -> compare a e = 0) acc then acc else acc @ [ e ]
  | Ast.Lit _ | Ast.Col _ -> acc
  | Ast.Unary_minus a | Ast.Not a | Ast.Is_null (a, _) | Ast.Like (a, _, _) ->
      collect_aggs acc a
  | Ast.Binop (_, a, b) -> collect_aggs (collect_aggs acc a) b
  | Ast.Between (a, b, c) ->
      collect_aggs (collect_aggs (collect_aggs acc a) b) c
  | Ast.In_list (a, es, _) -> List.fold_left collect_aggs (collect_aggs acc a) es
  | Ast.In_query (a, _, _) -> collect_aggs acc a
  | Ast.Exists _ -> acc
  | Ast.Func (_, es) -> List.fold_left collect_aggs acc es
  | Ast.Case (arms, eo) ->
      let acc =
        List.fold_left
          (fun acc (c, v) -> collect_aggs (collect_aggs acc c) v)
          acc arms
      in
      Option.fold ~none:acc ~some:(collect_aggs acc) eo

(* Structural rewrite for the router-side final query: a subtree equal
   to a GROUP BY expression becomes its shipped [__g<i>] column, an
   aggregate node becomes the merging aggregate over its shipped
   [__a<j>] partial (both COUNT forms merge by SUM; SUM/MIN/MAX merge
   by themselves). Everything else is mapped structurally. *)
let rewrite ~groups ~aggs e =
  let rec go e =
    match List.find_opt (fun (g, _) -> compare g e = 0) groups with
    | Some (_, name) -> Ast.Col name
    | None -> (
        match e with
        | Ast.Agg (f, _) -> (
            match List.find_opt (fun (a, _) -> compare a e = 0) aggs with
            | None -> e (* unreachable: collect_aggs saw every Agg node *)
            | Some (_, name) ->
                let f' =
                  match f with
                  | Ast.Count_star | Ast.Count -> Ast.Sum
                  | Ast.Sum -> Ast.Sum
                  | Ast.Min -> Ast.Min
                  | Ast.Max -> Ast.Max
                  | Ast.Avg -> Ast.Avg (* filtered out before rewrite *)
                in
                Ast.Agg (f', Some (Ast.Col name)))
        | Ast.Lit _ | Ast.Col _ -> e
        | Ast.Unary_minus a -> Ast.Unary_minus (go a)
        | Ast.Not a -> Ast.Not (go a)
        | Ast.Binop (op, a, b) -> Ast.Binop (op, go a, go b)
        | Ast.Between (a, b, c) -> Ast.Between (go a, go b, go c)
        | Ast.In_list (a, es, n) -> Ast.In_list (go a, List.map go es, n)
        | Ast.In_query (a, q, n) -> Ast.In_query (go a, q, n)
        | Ast.Exists q -> Ast.Exists q
        | Ast.Is_null (a, n) -> Ast.Is_null (go a, n)
        | Ast.Like (a, p, n) -> Ast.Like (go a, p, n)
        | Ast.Func (f, es) -> Ast.Func (f, List.map go es)
        | Ast.Case (arms, eo) ->
            Ast.Case
              (List.map (fun (c, v) -> (go c, go v)) arms, Option.map go eo))
  in
  go e

(* After rewriting, a merged expression may only touch the shipped
   columns: a surviving bare column is a group-representative reference
   ("first row of the group"), whose value depends on physical row order
   and cannot be reproduced from partials. *)
let shipped_cols_only =
  let ok c =
    String.length c >= 3
    && (String.sub c 0 3 = "__g" || String.sub c 0 3 = "__a")
  in
  fun e ->
    not
      (Ast.exists_expr (function Ast.Col c -> not (ok c) | _ -> false) e)

let rec dedup_names = function
  | [] -> false
  | x :: xs -> List.mem x xs || dedup_names xs

let plan ~table (q : Ast.select) : plan option =
  let same_table a b = String.lowercase_ascii a = String.lowercase_ascii b in
  match q.Ast.from with
  | [ { Ast.rel_name; alias = _ } ]
    when same_table rel_name table
         && (not q.Ast.distinct)
         && q.Ast.compound = []
         && not (List.exists (function Ast.Star_item -> true | _ -> false) q.Ast.items) ->
      let item_exprs =
        List.filter_map
          (function Ast.Star_item -> None | Ast.Expr_item (e, _) -> Some e)
          q.Ast.items
      in
      let order_exprs = List.map fst q.Ast.order_by in
      let all_exprs =
        item_exprs @ q.Ast.group_by
        @ Option.to_list q.Ast.where
        @ Option.to_list q.Ast.having
        @ order_exprs
      in
      if List.exists Ast.has_subquery all_exprs then None
      else
        let aggs =
          List.fold_left collect_aggs []
            (item_exprs @ Option.to_list q.Ast.having @ order_exprs)
        in
        let mergeable_agg = function
          | Ast.Agg ((Ast.Count_star | Ast.Count | Ast.Sum | Ast.Min | Ast.Max), _)
            ->
              true
          | _ -> false
        in
        if aggs = [] && q.Ast.group_by = [] then None
        else if not (List.for_all mergeable_agg aggs) then None
        else
          let groups =
            List.mapi (fun i g -> (g, Printf.sprintf "__g%d" i)) q.Ast.group_by
          in
          let agg_names =
            List.mapi (fun j a -> (a, Printf.sprintf "__a%d" j)) aggs
          in
          let partial_items =
            List.map (fun (g, n) -> Ast.Expr_item (g, Some n)) groups
            @ List.map (fun (a, n) -> Ast.Expr_item (a, Some n)) agg_names
          in
          let partial =
            {
              q with
              Ast.distinct = false;
              items = partial_items;
              having = None;
              order_by = [];
              limit = None;
              offset = None;
            }
          in
          let final_names =
            List.mapi
              (fun i item ->
                match item with
                | Ast.Expr_item (_, Some a) -> a
                | item -> Shape.infer_item_name i item)
              q.Ast.items
          in
          if dedup_names final_names then None
          else
            let rw = rewrite ~groups ~aggs:agg_names in
            let final_items =
              List.map2
                (fun item name ->
                  match item with
                  | Ast.Expr_item (e, _) -> Ast.Expr_item (rw e, Some name)
                  | Ast.Star_item -> assert false)
                q.Ast.items final_names
            in
            let final_having = Option.map rw q.Ast.having in
            let final_order = List.map (fun (e, d) -> (rw e, d)) q.Ast.order_by in
            let rewritten_exprs =
              List.filter_map
                (function Ast.Expr_item (e, _) -> Some e | _ -> None)
                final_items
              @ Option.to_list final_having
              @ List.map fst final_order
            in
            if not (List.for_all shipped_cols_only rewritten_exprs) then None
            else
              let final =
                {
                  Ast.distinct = false;
                  items = final_items;
                  from = [ { Ast.rel_name = scratch_name; alias = None } ];
                  where = None;
                  group_by = List.map (fun (_, n) -> Ast.Col n) groups;
                  having = final_having;
                  order_by = final_order;
                  limit = q.Ast.limit;
                  offset = q.Ast.offset;
                  compound = [];
                }
              in
              Some { partial; scratch = scratch_name; final }
  | _ -> None
