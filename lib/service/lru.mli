(** A bounded, mutex-guarded LRU store with string keys.

    Backs the service's verdict, graph and instance-text caches and the
    router's routing tables.  Recency is an intrusive doubly-linked
    list through the entries, so [find], [put] and eviction are O(1)
    (plus hashing the key): a store at capacity pays the same per
    insertion as an empty one.  All operations take the store's own
    mutex, so one store can be shared by every connection handler
    thread. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** [find t k] returns the cached value and marks it most recently
    used. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or refresh; evicts the least recently used entry when the
    store is full. *)

val remove : 'a t -> string -> unit
(** Drop an entry (no-op when absent) — used when a cached verdict fails
    the byte guard or its certificate check. *)

val hot : 'a t -> int -> (string * 'a) list
(** The (at most) [n] most recently used bindings, most-recent first,
    without touching recency — the warm-transfer export set. *)

val evictions : 'a t -> int
(** How many entries capacity pressure has pushed out so far. *)

val hits : 'a t -> int
(** How many [find] calls returned an entry. *)

val misses : 'a t -> int
(** How many [find] calls came up empty.  Together with {!hits} this
    makes routing-table caches (the router's delta-chain LRU) auditable
    from [stats] instead of invisible. *)

val clear : 'a t -> unit
