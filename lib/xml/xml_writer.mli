(** The XML serializer, the only module that knows markup syntax:
    one append per construct onto a caller's buffer. {!add_event}
    and the store's serializer both write through them. Inverse of
    {!Xml_parser.parse} on its supported subset (checked by a
    round-trip property in the test suite). *)

(** [<name]; {!add_attribute}s follow, then {!close_start_tag}. *)
val add_start_tag : Buffer.t -> Qname.t -> unit

(** [ name="value"] (escaped) inside an open start tag;
    [add_lone_attribute] writes [name="value"], an attribute node on
    its own. *)
val add_attribute : Buffer.t -> Qname.t -> string -> unit

val add_lone_attribute : Buffer.t -> Qname.t -> string -> unit
val close_start_tag : Buffer.t -> unit
val add_end_tag : Buffer.t -> Qname.t -> unit

(** Character data, escaped. Comment and PI content is written as is:
    the constructors and "replace value of node" reject content that
    would end either early. *)
val add_text : Buffer.t -> string -> unit

val add_comment : Buffer.t -> string -> unit

(** [<?target content?>], or [<?target?>] for empty content. *)
val add_pi : Buffer.t -> string -> string -> unit

val add_event : Buffer.t -> Event.t -> unit
val to_string : Event.t list -> string
