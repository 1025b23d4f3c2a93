(* Pull-style XML events. The store loader folds over these to build
   trees; the XMark generator emits them; the serializer consumes the
   same shape, which gives us parse/serialize round-trip tests. *)

type t =
  | Start_element of Qname.t * (Qname.t * string) list
  | End_element of Qname.t
  | Text of string
  | Comment of string
  | Pi of string * string  (* target, content *)

let equal a b =
  match a, b with
  | Start_element (n1, a1), Start_element (n2, a2) ->
    Qname.equal n1 n2
    && List.length a1 = List.length a2
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> Qname.equal k1 k2 && String.equal v1 v2)
         a1 a2
  | End_element n1, End_element n2 -> Qname.equal n1 n2
  | Text s1, Text s2 | Comment s1, Comment s2 -> String.equal s1 s2
  | Pi (t1, c1), Pi (t2, c2) -> String.equal t1 t2 && String.equal c1 c2
  | ( Start_element _ | End_element _ | Text _ | Comment _ | Pi _ ), _ ->
    false
