(** The cross-request result cache: the heart of the service — a
    {b memory tier} (LRU) layered over an optional {b durable tier}
    ({!Tier}, backed by {!Store.Log}).

    Two LRU stores keyed by {!Content_hash} digests, and a memo:

    - a {b graph intern table} (graph key → packed [Data_graph.t]): the
      first request that mentions a graph donates its packed form, and
      every later request with the same canonical graph is decided
      against that {e interned} graph.  The per-graph derived artifacts
      — adjacency and reachability matrices (cached inside
      [Data_graph]), Hom CSPs and root domains (keyed by graph [uid])
      — are therefore built once and shared across requests, not once
      per connection.
    - a {b verdict store} (instance key → decided outcome, the instance
      it was decided on, and that instance's canonical bytes).  A hit
      skips the decision procedure entirely, behind two guards.  The
      {b byte guard}: the entry's canonical bytes
      ({!Content_hash.instance_bytes}) must equal the request's.  Equal
      canonical bytes pose the same definability problem (Fact 10), so
      a hit is exact whatever digest the entry was filed under — a
      digest collision, or a record imported under another instance's
      key, is a miss, not a wrong answer.  The {b certificate check,
      once per entry}: if the verdict carries a certificate it is
      {e revalidated} on the entry's first hit
      ([Outcome.check_certificate] re-evaluates the query against the
      instance — a code path disjoint from the search that produced
      it).  The check is a pure function of the entry's immutable
      outcome and instance, so the entry records that it passed and
      later hits are guarded by the bytes alone.  Every path files its
      entries unchecked (decide miss, {!insert}, durable-tier
      promotion, {!import}, {!apply_edit}), and a miss reply is served
      without a check, as it always was.  An entry that fails either
      guard is dropped and recomputed rather than served; both failures
      count as [revalidation_failures].
    - an {b instance-text memo} (exact request text → parsed instance,
      its two digests and its canonical bytes) in front of both, used by
      {!decide_text}: a repeated request skips the parse and the
      hashing, never the verdict lookup or its guards.

    Only [Definable] and [Not_definable] outcomes are stored: they are
    budget-independent facts about the instance.  [Unknown] outcomes
    (budget exhaustion, unsupported arity) depend on the request's
    budget and are never cached, so a later request with more fuel is
    not short-changed by an earlier timeout.

    {b Tiering.}  With a durable tier, every cacheable verdict is
    written through to the store, and a memory miss probes the store
    before deciding: a durable hit is promoted into the LRU (rebuilding
    its instance from the stored text and its canonical bytes from the
    instance), enters unchecked, is guarded exactly like a memory hit,
    and is reported as a [`Hit] — callers cannot tell which tier served
    it, only the [store_hits] counter can.  An entry that fails either
    guard is dropped from {e both} tiers and recomputed.
    Without a durable tier the cache behaves exactly as before.

    Node {e names} are not part of the cache key (see {!Content_hash}),
    and outcomes carry node indices, not names — render a cached outcome
    with the requesting graph and the response shows the requester's
    names even on a hit.

    Concurrency: safe to call from any number of threads.  The LRU
    stores take their own locks; the decision itself runs outside any
    lock.  Two racing requests for the same uncached instance may both
    compute it (last store wins) — the cache trades duplicate work on
    that rare race for never blocking a request behind another's
    decide. *)

type config = {
  verdict_capacity : int;  (** max cached outcomes (default 1024) *)
  graph_capacity : int;  (** max interned graphs (default 256) *)
  revalidate : bool;
      (** check an entry's certificate before serving it, on its first
          hit; the result is kept on the entry (default [true]).  The
          byte guard applies either way. *)
}

val default_config : config

type t

val create : ?config:config -> ?durable:Tier.t -> unit -> t
(** [durable] plugs in the persistent tier; the cache takes ownership
    (see {!close}). *)

val durable : t -> Tier.t option

val close : t -> unit
(** Sync and close the durable tier, if any.  The memory tier needs no
    teardown. *)

val decide :
  t ->
  ?fuel:int ->
  ?deadline_s:float ->
  ?k:int ->
  lang:string ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  (Engine.Outcome.t * [ `Hit | `Miss ], string) result
(** Decide through the cache.  A fresh {!Engine.Budget} with the given
    fuel/deadline is created only on a miss — hits never consult the
    budget.  [Error] on an invalid instance or an unknown language.
    [k] is the [krem] register bound (default 1). *)

val decide_text :
  t ->
  ?fuel:int ->
  ?deadline_s:float ->
  ?k:int ->
  lang:string ->
  string ->
  ( Datagraph.Data_graph.t * Engine.Outcome.t * [ `Hit | `Miss ] * string,
    string )
  result
(** The server's entry point: {!decide} on an instance {e text},
    returning also the graph parsed from it (to render the reply with
    the requester's node names) and the instance digest under which the
    verdict is stored — the handle a client quotes back in a [delta]
    request to edit this instance incrementally.

    Parsing and content-hashing are memoized by the exact request bytes
    ({!Content_hash.text_key}: [lang], [k] and the text).  Both are pure
    functions of those bytes and graphs are immutable, so a memo hit
    yields exactly what a re-parse would; nothing else is skipped — the
    verdict store is still consulted and a verdict hit still guarded
    (the memo keeps the canonical bytes, so the byte guard needs no
    re-canonicalization).  A text enters the memo only when its verdict
    lookup {e hit}, so a never-repeated instance keeps nothing alive; the memo
    holds at most [verdict_capacity] texts.  Errors are never memoized:
    a malformed text ([Error "instance: ..."]) is re-parsed, and fails
    the same way, every time.  The [cache.hit]/[cache.miss] histograms
    time text to outcome; a memo hit records no [service.cache.hash]
    span. *)

val find_instance : t -> string -> Engine.Instance.t option
(** The instance stored under a digest, if still cached — the server
    resolves edit node names against its graph before {!apply_edit}. *)

type delta_outcome = {
  outcome : Engine.Outcome.t;
  inst : Engine.Instance.t;  (** the edited instance (for rendering) *)
  key : string;  (** chained digest addressing the edited instance *)
  repaired : bool;  (** fast path vs. full-decide fallback *)
}

val apply_edit :
  t ->
  ?fuel:int ->
  ?deadline_s:float ->
  ?k:int ->
  lang:string ->
  key:string ->
  Engine.Delta.graph_edit ->
  (delta_outcome, string) result
(** Incremental step: look up the instance stored under [key], apply the
    edit through {!Engine.Delta.decide_delta} (certificate repair first,
    budgeted full decide on repair miss), and store the result under the
    {e chained} key [Content_hash.chain_key ~parent:key edit] — O(edit)
    hashing, no graph re-serialization.  The stored entry carries no
    canonical bytes, so it serves later edits but never a verdict
    lookup (one that lands on it through a digest collision fails the
    byte guard).  [Error] when [key] is not in the verdict store (never
    decided, or evicted): the caller must cold-decide first.  [lang] and [k] must match the original decide —
    a mismatch is safe (the fallback recomputes in the given language)
    but wastes the fast path. *)

val insert :
  t ->
  ?k:int ->
  lang:string ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  Engine.Outcome.t ->
  (unit, string) result
(** Seed the verdict store directly (tests and warm-up tooling); the
    outcome is stored unconditionally and unchecked, so the certificate
    check on its next hit is what stands between a bogus seed and the
    caller. *)

val export_hot : t -> limit:int -> (string * string) list
(** The (at most [limit]) most recently used memory-tier entries,
    most-recent first, each as [(digest, encoded record)] in the
    {!Tier} codec — the payload of a warm transfer. *)

val import : t -> key:string -> string -> (unit, string) result
(** Admit one encoded record (from {!export_hot}, possibly via another
    process): decode, re-check its certificate, and write it through
    both tiers.  [Error] on a record that does not validate — a corrupt
    or hostile transfer is refused, never stored.  The check is against
    the record's own instance, not against [key]; a record filed under
    another instance's digest is caught by the byte guard on its first
    hit, and it enters unchecked, so its certificate is checked again
    there. *)

val stats : t -> (string * int) list
(** Monotone counters and current sizes, sorted by name:
    [verdict_hits], [verdict_misses], [store_hits], [store_misses],
    [store_drops], [revalidation_ok], [revalidation_failures],
    [graph_hits], [graph_misses], [delta_repair_hits],
    [delta_repair_misses], [verdict_size], [graph_size],
    [verdict_evictions], [graph_evictions], and the {!decide_text}
    memo's [text_hits], [text_misses], [text_evictions], [text_size] —
    plus, with a durable tier,
    {!Tier.stats} prefixed [store_].  Counted internally (always on,
    independent of [Obs]); the same events are mirrored to
    [Obs.Counter]s for traces and bench breakdowns. *)
