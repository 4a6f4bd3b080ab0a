(** Content-addressed keys for graphs and definability instances.

    The service's caches are keyed by a {e canonical} serialization of
    the problem content, so two requests that pose the same problem hit
    the same cache line no matter how the instance file spelled it:

    - {b node names are ignored} — nodes are serialized by their dense
      index.  Names are presentation only; the cached outcome carries
      node indices and is re-rendered with the requester's names.
    - {b data values are canonicalized} up to bijective renaming: each
      node records the first-occurrence rank of its value, not the value
      itself.  The query languages only observe (in)equality of values
      (Fact 10: REM/REE languages are closed under automorphisms of the
      data domain), so instances that differ by a value automorphism
      have the same verdict — and the same key.
    - {b edges are sorted} by (label, source, target), so the order of
      [edge] lines in the input does not matter.
    - edge {e labels} and the relation's tuples are serialized verbatim:
      both are observable (labels appear in certificates, tuples are the
      problem statement).

    Keys are MD5 digests (stdlib [Digest]) of the canonical bytes,
    rendered as 32-char lowercase hex.  MD5's known collision attacks
    are irrelevant here: a verdict entry keeps the canonical bytes it
    was filed under, and {!Cache} serves a hit only when those bytes
    equal the request's, so two instances sharing a digest get a miss,
    never each other's verdict.  The digest only picks the cache line;
    the bytes decide whether it holds this problem.  128 bits make
    accidental collisions out of reach anyway. *)

val graph_bytes : Datagraph.Data_graph.t -> string
(** The canonical serialization of the graph alone (exposed for tests
    and debugging; the digest is what the caches use). *)

val graph_key : Datagraph.Data_graph.t -> string
(** 32-char hex digest of {!graph_bytes}. *)

val instance_bytes :
  lang:string ->
  k:int ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  string
(** Canonical serialization of the whole problem: graph bytes, the
    relation's arity and sorted tuples, the language name, and the
    register bound [k] (only [krem] reads it, but keying on it
    unconditionally is cheap and can never serve a wrong verdict). *)

val instance_key :
  lang:string ->
  k:int ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  string
(** 32-char hex digest of {!instance_bytes}. *)

val keys :
  lang:string ->
  k:int ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  string * string
(** [(graph_key, instance_key)], serializing the graph only once. *)

val keys_and_bytes :
  lang:string ->
  k:int ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  string * string * string
(** [(graph_key, instance_key, instance_bytes)] from one serialization
    of the graph — the cache's lookup path, which compares the
    {!instance_bytes} with those of the entry it finds. *)

val text_key : lang:string -> k:int -> string -> string
(** The key under which the instance-text memos ({!Cache.decide_text}
    on a shard, the router's placement memo) remember one exact request:
    the language, length-prefixed, then [k], then the instance text
    verbatim.  It is not a digest and not canonical — two spellings of
    one problem get two keys — but no two distinct [(lang, k, text)]
    triples share one: the length prefix fixes where [lang] ends, and
    [k]'s decimal rendering ends at the first newline.  So ["rem"] with
    text [t] and ["re"] with text ["m" ^ t] never collide, as they would
    under plain concatenation. *)

(** {2 Digest chaining}

    An edit stream addresses its instances by {e chained} keys:
    [chain_key ~parent edit] hashes the parent's key plus the canonical
    edit bytes — O(edit size), never O(graph size) — so a warm server
    follows a stream without re-serializing the graph at every step.
    Chained keys are {e not} content keys: the same edited content
    reached via different edit paths (or via a cold [decide]) gets a
    different key, costing a potential duplicate compute but never a
    wrong answer.  An entry filed under a chained key carries no
    canonical bytes (computing them would cost O(graph) per edit), so
    a verdict lookup can reach it only through a digest collision, and
    then the byte guard turns it into a miss.  Chained keys also skip
    the data-value canonicalization of {!graph_bytes} — same
    tradeoff. *)

val edit_bytes : Engine.Delta.graph_edit -> string
(** Canonical serialization of one edit ([Set_relation] tuples are
    sorted; labels and names length-prefixed). *)

val chain_key : parent:string -> Engine.Delta.graph_edit -> string
(** 32-char hex digest of the parent key plus {!edit_bytes}. *)
