(** Reading response lines without a parse: responses render their
    fields canonically, one space apart, so a field is found by its
    ["(name "] prefix. *)

let find_from (s : string) (pat : string) (from : int) : int option =
  let ls = String.length s and lp = String.length pat in
  let rec matches i k = k = lp || (s.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec go i =
    if i + lp > ls then None else if matches i 0 then Some i else go (i + 1)
  in
  go from

(** The field [(name ...)] of [line] as the span [(start, stop)] of its
    text, parentheses included. *)
let span (line : string) (name : string) : (int * int) option =
  Option.bind (find_from line ("(" ^ name ^ " ") 0) (fun i ->
      Option.map (fun j -> (i, j + 1)) (String.index_from_opt line i ')'))

(** The atom of a response's [(id ...)] field. *)
let id (line : string) : string option =
  Option.map
    (fun (i, j) -> String.sub line (i + 4) (j - i - 5))
    (span line "id")

let status line =
  Option.value ~default:"missing" (Fv_serve.Client.status_of_response line)

(** A response may only be [ok] (or [rejected], for a compile the front
    end refuses) and never brownout-degraded to count as answered. *)
let answered ~(allow_rejected : bool) (line : string) : bool =
  (match status line with
  | "ok" -> true
  | "rejected" -> allow_rejected
  | _ -> false)
  && find_from line "(brownout " 0 = None

(** Hash of a response with its [(id ...)] and [(cached ...)] fields
    left out: every answer about the same loop has the same one, whether
    it came from the response memo, the plan cache or a fresh compile,
    and whatever id the request carried. *)
let answer_hash (line : string) : int64 =
  let cuts = List.sort compare (List.filter_map (span line) [ "id"; "cached" ]) in
  let piece lo hi = String.sub line lo (hi - lo) in
  let h, last =
    List.fold_left
      (fun (h, pos) (i, j) -> (Fv_obs.Hash.fold_string h (piece pos i), j))
      (Fv_obs.Hash.offset_basis, 0) cuts
  in
  Fv_obs.Hash.fold_string h (piece last (String.length line))
