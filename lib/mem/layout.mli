(** Shared address-space layout.

    The shared virtual address space is a flat array of 8-byte words split
    into fixed-size pages. Addresses are word indices. *)

(** Private so that [Svm.Api] reads [shift] and [mask] as fields on its
    access fast path. *)
type t = private {
  page_words : int;
  shift : int;  (** log2 [page_words]: [addr lsr shift] is the page. *)
  mask : int;  (** [page_words - 1]: [addr land mask] is the offset. *)
}

(** [create ~page_words] builds a layout with [page_words] words per page.
    [page_words] must be a positive power of two. *)
val create : page_words:int -> t

val page_words : t -> int

val page_bytes : t -> int

val word_bytes : int

(** Page containing address [addr]. *)
val page_of_addr : t -> int -> int

(** Offset of [addr] within its page. *)
val offset_of_addr : t -> int -> int

(** First address of page [page]. *)
val base_of_page : t -> int -> int

(** Number of pages needed to hold [words] words starting at a page
    boundary. *)
val pages_for : t -> int -> int
