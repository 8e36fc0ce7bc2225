(** Scalar values that flow through the scalar IR and through vector lanes.

    The FlexVec workloads mix integer index/compare-heavy code (SPEC int)
    with floating-point compute (SPEC fp, LAMMPS/GROMACS/MILC), so lanes
    carry either an [int] or a [float]. Arithmetic between mixed operands
    promotes to float, mirroring C's usual conversions for the loop bodies
    we model. *)

type t = Int of int | Float of float [@@deriving show { with_path = false }, eq, ord]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr
[@@deriving show { with_path = false }, eq]

type cmpop = Lt | Le | Gt | Ge | Eq | Ne [@@deriving show { with_path = false }, eq]

type unop = Neg | Not | Abs [@@deriving show { with_path = false }, eq]

let int i = Int i
let float f = Float f
let zero = Int 0

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f

(** C-style truthiness: nonzero is true. *)
let truthy = function
  | Int i -> i <> 0
  | Float f -> f <> 0.0

let of_bool b = Int (if b then 1 else 0)

let is_float = function Float _ -> true | Int _ -> false

let promote2 a b =
  match (a, b) with
  | Int x, Int y -> `Int (x, y)
  | _ -> `Float (to_float a, to_float b)

let binop (op : binop) (a : t) (b : t) : t =
  match promote2 a b with
  | `Int (x, y) -> (
      match op with
      | Add -> Int (x + y)
      | Sub -> Int (x - y)
      | Mul -> Int (x * y)
      | Div -> Int (if y = 0 then 0 else x / y)
      | Rem -> Int (if y = 0 then 0 else x mod y)
      | Min -> Int (if x < y then x else y)
      | Max -> Int (if x > y then x else y)
      | And -> Int (x land y)
      | Or -> Int (x lor y)
      | Xor -> Int (x lxor y)
      | Shl -> Int (x lsl (y land 62))
      | Shr -> Int (x asr (y land 62)))
  | `Float (x, y) -> (
      match op with
      | Add -> Float (x +. y)
      | Sub -> Float (x -. y)
      | Mul -> Float (x *. y)
      | Div -> Float (if y = 0.0 then 0.0 else x /. y)
      | Rem -> Float (if y = 0.0 then 0.0 else Float.rem x y)
      | Min -> Float (Float.min x y)
      | Max -> Float (Float.max x y)
      | And | Or | Xor | Shl | Shr ->
          invalid_arg "Value.binop: bitwise op on float operands")

let cmp (op : cmpop) (a : t) (b : t) : bool =
  let c =
    match promote2 a b with
    | `Int (x, y) -> Int.compare x y
    | `Float (x, y) -> Float.compare x y
  in
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

let unop (op : unop) (a : t) : t =
  match (op, a) with
  | Neg, Int i -> Int (-i)
  | Neg, Float f -> Float (-.f)
  | Not, v -> of_bool (not (truthy v))
  | Abs, Int i -> Int (abs i)
  | Abs, Float f -> Float (Float.abs f)

let pp_compact ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
