(** Program dependence graph (PDG) assembly.

    Nodes are statement ids plus the loop-header node {!Cfg.entry}.
    Edges carry the dependence kind; loop-carried edges are what the
    FlexVec analysis relaxes when it believes they fire infrequently at
    runtime (§3.1, §4). *)

open Fv_ir
open Fv_ir.Ast
module SS = Set.Make (String)

type kind =
  | Control  (** intra-iteration control dependence *)
  | Break_control  (** loop header control-dependent on a break's guard *)
  | Flow of string  (** scalar def → use, same iteration *)
  | Carried_flow of string  (** scalar def → use, next iteration(s) *)
  | Mem of string  (** potential cross-iteration RAW through an array *)
  | Mem_static of string
      (** statically distinct affine offsets on the same array *)
[@@deriving show { with_path = false }, eq]

type edge = { src : int; dst : int; kind : kind }
[@@deriving show { with_path = false }, eq]

type t = {
  loop : loop;
  nodes : int list;  (** statement ids + {!Cfg.entry} *)
  edges : edge list;
}

(* ------------------------------------------------------------------ *)
(* Data dependence                                                     *)
(* ------------------------------------------------------------------ *)

(** Statement occurrence with lexical position, guard nesting depth and
    the enclosing guard chain (innermost [If] first). *)
type occ = { stmt : stmt; pos : int; depth : int; chain : int list }

let occurrences (l : loop) : occ list =
  let pos = ref 0 in
  let rec go depth chain acc (body : stmt list) =
    List.fold_left
      (fun acc s ->
        let o = { stmt = s; pos = !pos; depth; chain } in
        incr pos;
        let acc = o :: acc in
        match s.node with
        | If (_, t, e) ->
            go (depth + 1) (s.id :: chain) (go (depth + 1) (s.id :: chain) acc t) e
        | _ -> acc)
      acc body
  in
  List.rev (go 0 [] [] l.body)

(** [chain_encloses ~def ~use]: every guard of [def] also guards [use]
    (def's chain is a suffix of use's chain), i.e. whenever the use's
    program point is reached in an iteration, the def's was reachable
    earlier in the same iteration under the same guards. *)
let chain_encloses ~(def : int list) ~(use : int list) : bool =
  let rec is_suffix l1 l2 =
    if List.length l1 > List.length l2 then false
    else if List.length l1 = List.length l2 then l1 = l2
    else match l2 with [] -> false | _ :: tl -> is_suffix l1 tl
  in
  is_suffix def use

let scalar_flow_edges (l : loop) (occs : occ list) : edge list =
  let edges = ref [] in
  let defs_of v =
    List.filter (fun o -> SS.mem v (Analysis.node_defs o.stmt.node)) occs
  in
  List.iter
    (fun (use_o : occ) ->
      let uses = Analysis.node_uses use_o.stmt.node in
      SS.iter
        (fun v ->
          if not (String.equal v l.index) then begin
            let defs = defs_of v in
            (* same-iteration flow: any def lexically before the use *)
            List.iter
              (fun d ->
                if d.pos < use_o.pos then
                  edges :=
                    { src = d.stmt.id; dst = use_o.stmt.id; kind = Flow v }
                    :: !edges)
              defs;
            (* loop-carried flow: the use can observe a previous
               iteration's def unless some def of v definitely executes
               before it in the same iteration (lexically earlier and
               guarded by a prefix of the use's own guards) *)
            let killed =
              List.exists
                (fun d ->
                  d.pos < use_o.pos
                  && chain_encloses ~def:d.chain ~use:use_o.chain)
                defs
            in
            if (not killed) && defs <> [] then
              List.iter
                (fun d ->
                  edges :=
                    {
                      src = d.stmt.id;
                      dst = use_o.stmt.id;
                      kind = Carried_flow v;
                    }
                    :: !edges)
                defs
          end)
        uses)
    occs;
  !edges

let memory_edges (l : loop) (occs : occ list) : edge list =
  let edges = ref [] in
  let stores =
    List.filter_map
      (fun o ->
        match Analysis.node_store o.stmt.node with
        | Some (arr, idx) -> Some (o, arr, idx)
        | None -> None)
      occs
  in
  List.iter
    (fun (store_o, arr, sidx) ->
      List.iter
        (fun (load_o : occ) ->
          List.iter
            (fun (larr, lidx) ->
              if String.equal arr larr then begin
                let sa = Analysis.affine_in_index ~index:l.index sidx in
                let la = Analysis.affine_in_index ~index:l.index lidx in
                match (sa, la) with
                | Some so, Some lo ->
                    (* both unit-stride: identical offsets touch the same
                       element in the same lane — no cross-lane hazard *)
                    if not (equal_expr so lo) then
                      edges :=
                        {
                          src = store_o.stmt.id;
                          dst = load_o.stmt.id;
                          kind = Mem_static arr;
                        }
                        :: !edges
                | _ ->
                    (* at least one side indirect: runtime dependency *)
                    edges :=
                      {
                        src = store_o.stmt.id;
                        dst = load_o.stmt.id;
                        kind = Mem arr;
                      }
                      :: !edges
              end)
            (Analysis.node_loads load_o.stmt.node))
        occs)
    stores;
  !edges

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let build (l : loop) : t =
  if not (Ast.is_numbered l) then invalid_arg "Pdg.build: loop not numbered";
  let cfg = Cfg.build l in
  let occs = occurrences l in
  let cd =
    Dom.control_dependences cfg
    |> List.filter (fun (a, b) -> b <> Cfg.exit_node && a <> Cfg.exit_node)
    (* the header's control dependence on itself just says "the loop
       repeats"; it is not a relaxable dependence *)
    |> List.filter (fun (a, b) -> not (a = Cfg.entry && b = Cfg.entry))
    |> List.map (fun (a, b) ->
           let kind =
             if b = Cfg.entry || (a >= 0 && b >= 0 && b < a) then
               (* a dependence of the header (or an earlier statement) on a
                  later guard only arises through the back edge: this is
                  the paper's backward control-dependence arc *)
               Break_control
             else Control
           in
           { src = a; dst = b; kind })
  in
  let edges =
    List.sort_uniq compare
      (cd @ scalar_flow_edges l occs @ memory_edges l occs)
  in
  let nodes = Cfg.entry :: List.map (fun s -> s.id) (all_stmts l) in
  { loop = l; nodes; edges }

let succs (g : t) (n : int) : (int * kind) list =
  List.filter_map
    (fun e -> if e.src = n then Some (e.dst, e.kind) else None)
    g.edges

let edges_between (g : t) (scc : int list) : edge list =
  List.filter (fun e -> List.mem e.src scc && List.mem e.dst scc) g.edges

let pp ppf (g : t) =
  List.iter
    (fun e -> Fmt.pf ppf "%d -%s-> %d@." e.src (show_kind e.kind) e.dst)
    g.edges
