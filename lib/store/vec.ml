(* Growable vector of ints, used for child/attribute lists in the
   store. OCaml 5.1 has no Dynarray yet (5.2+), and child lists are a
   hot path: XMark-style workloads append thousands of children under
   one parent ($purchasers in the paper's §4.3 example), so the
   amortized O(1) push matters for the E1 complexity claims.

   Most vectors stay empty — every text and attribute node has a child
   and an attribute vector — so a vector starts from the shared empty
   array and allocates on its first push. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 0) () =
  { data = (if capacity <= 0 then [||] else Array.make capacity 0); len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let ensure v n =
  if n > Array.length v.data then begin
    let cap = ref (max 4 (Array.length v.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* Insert [x] at index [i], shifting the tail right. *)
let insert v i x =
  if i < 0 || i > v.len then invalid_arg "Vec.insert";
  ensure v (v.len + 1);
  Array.blit v.data i v.data (i + 1) (v.len - i);
  v.data.(i) <- x;
  v.len <- v.len + 1

(* Remove the element at index [i], shifting the tail left. *)
let remove_at v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.remove_at";
  Array.blit v.data (i + 1) v.data i (v.len - i - 1);
  v.len <- v.len - 1

let index_of v x =
  let rec find i = if i >= v.len then None else if v.data.(i) = x then Some i else find (i + 1) in
  find 0

let remove v x =
  match index_of v x with
  | None -> false
  | Some i ->
    remove_at v i;
    true

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.len - 1) []

let of_list l =
  let v = create ~capacity:(List.length l) () in
  List.iter (push v) l;
  v

let is_empty v = v.len = 0

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let first v = if v.len = 0 then None else Some v.data.(0)

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0
