(** XML escaping and entity resolution. *)

exception Unknown_entity of string

(** Append with ['<' '>' '&'] and CR (as [&#13;]) escaped, for
    element content. *)
val add_escaped_text : Buffer.t -> string -> unit

(** Append with ['<' '>' '&' '"'] plus tab, newline and CR escaped,
    for a double-quoted attribute value. *)
val add_escaped_attr : Buffer.t -> string -> unit

(** Append a Unicode code point as UTF-8. *)
val add_utf8 : Buffer.t -> int -> unit

(** Append the expansion of one entity name (the text between ['&']
    and [';']) to the buffer. @raise Unknown_entity if undefined. *)
val resolve_entity : Buffer.t -> string -> unit

(** Expand [&lt; &gt; &amp; &quot; &apos; &#10; &#x1F;]-style
    references. @raise Unknown_entity on undefined or unterminated
    references. *)
val unescape : string -> string
