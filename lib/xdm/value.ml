(* XDM values are flat sequences of items; there are no nested
   sequences and a single item is the singleton sequence. *)

type t = Item.t list

let empty : t = []
let of_item i : t = [ i ]
let of_atomic a = [ Item.Atomic a ]
let of_node id = [ Item.Node id ]
let of_nodes ids = List.map Item.node ids
let of_int i = of_atomic (Atomic.Integer i)
(* Comparisons and predicates return booleans by the thousand: share
   the two values. *)
let true_v = of_atomic (Atomic.Boolean true)
let false_v = of_atomic (Atomic.Boolean false)
let of_bool b = if b then true_v else false_v
let of_string s = of_atomic (Atomic.String s)
let of_double f = of_atomic (Atomic.Double f)

let singleton_item (v : t) =
  match v with
  | [ i ] -> i
  | [] -> Errors.type_error "expected exactly one item, got empty sequence"
  | _ -> Errors.type_error "expected exactly one item, got %d" (List.length v)

let item_opt (v : t) =
  match v with
  | [] -> None
  | [ i ] -> Some i
  | _ -> Errors.type_error "expected at most one item, got %d" (List.length v)

let atomize store (v : t) = List.map (Item.atomize store) v

let singleton_atomic store v = Item.atomize store (singleton_item v)

let singleton_node v = Item.as_node (singleton_item v)

let nodes_of v =
  List.map
    (function
      | Item.Node id -> id
      | Item.Atomic a ->
        Errors.type_error "expected a sequence of nodes, found %s"
          (Atomic.type_name a))
    v

(* Effective boolean value, XQuery 1.0 §2.4.3. *)
let effective_boolean_value (v : t) =
  match v with
  | [] -> false
  | Item.Node _ :: _ -> true
  | [ Item.Atomic a ] -> (
    match a with
    | Atomic.Boolean b -> b
    | Atomic.String s | Atomic.Untyped s -> s <> ""
    | Atomic.Integer i -> i <> 0
    | Atomic.Decimal f | Atomic.Double f -> not (f = 0.0 || Float.is_nan f)
    | Atomic.QName _ ->
      Errors.ebv_error "effective boolean value of a QName")
  | Item.Atomic _ :: _ ->
    Errors.ebv_error "effective boolean value of a multi-atomic sequence"

(* fn:string() on a value: string of the single item, "" for empty. *)
let string_value store (v : t) =
  match v with
  | [] -> ""
  | [ i ] -> Item.string_value store i
  | _ -> Errors.type_error "fn:string on a sequence of more than one item"

let to_integer store v = Atomic.to_integer (singleton_atomic store v)
let to_double store v = Atomic.to_double (singleton_atomic store v)

let equal store (a : t) (b : t) =
  List.length a = List.length b && List.for_all2 (Item.equal store) a b

let pp store ppf (v : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (Item.pp store))
    v
