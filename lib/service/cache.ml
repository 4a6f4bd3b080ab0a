module Data_graph = Datagraph.Data_graph
module Graph_io = Datagraph.Graph_io
module Tuple_relation = Datagraph.Tuple_relation
module Outcome = Engine.Outcome
module Instance = Engine.Instance
module Budget = Engine.Budget
module Registry = Engine.Registry

type config = {
  verdict_capacity : int;
  graph_capacity : int;
  revalidate : bool;
}

let default_config =
  { verdict_capacity = 1024; graph_capacity = 256; revalidate = true }

(* The memory tier's entry: the instance is stored alongside the outcome
   so a hit can revalidate the certificate without re-validating and
   re-packing the problem; it pins the interned graph (and its derived
   artifacts) for as long as the verdict lives, even past graph-store
   eviction.  [lang]/[k] ride along so the entry can be re-encoded for
   the durable tier and for warm transfer without a reverse lookup.

   [bytes] are the canonical instance bytes the entry denotes (empty
   under a chained key): a verdict hit is served only when they equal
   the request's, which makes a hit exact whatever digest it was filed
   under.  [checked] records that the certificate passed
   [check_certificate]; that check is a pure function of the immutable
   [outcome]/[inst] pair, so it runs on the entry's first hit only. *)
type entry = {
  outcome : Outcome.t;
  inst : Instance.t;
  lang : string;
  k : int;
  bytes : string;
  checked : bool Atomic.t;
}

(* Every path files its entries unchecked. *)
let entry ~bytes ~lang ~k outcome inst =
  { outcome; inst; lang; k; bytes; checked = Atomic.make false }

(* The canonical bytes of a record that arrived without them (durable
   tier, warm transfer), from the instance the record rebuilt. *)
let entry_of_record { Tier.lang; k; inst; outcome } =
  let bytes =
    Content_hash.instance_bytes ~lang ~k (Instance.graph inst)
      (Instance.relation inst)
  in
  entry ~bytes ~lang ~k outcome inst

(* The instance-text memo's value: the parse of one exact request text,
   its content keys and its canonical bytes.  All are pure functions of
   the text (and of [lang]/[k], which the memo key carries), and graphs
   are immutable, so a memo hit hands back exactly what a re-parse and
   re-hash would. *)
type parsed = {
  g : Data_graph.t;
  s : Tuple_relation.t;
  gkey : string;
  ikey : string;
  bytes : string;
}

type t = {
  config : config;
  verdicts : entry Lru.t;
  durable : Tier.t option;
  graphs : Data_graph.t Lru.t;
  texts : parsed Lru.t;  (* exact text key -> parse and keys *)
  (* Service-level statistics are plain atomics, always on: the [stats]
     protocol op must answer whether or not telemetry is enabled.  The
     Obs counters below mirror the same events for traces/benches. *)
  verdict_hits : int Atomic.t;
  verdict_misses : int Atomic.t;
  store_hits : int Atomic.t;
  store_misses : int Atomic.t;
  store_drops : int Atomic.t;
  revalidation_ok : int Atomic.t;
  revalidation_failures : int Atomic.t;
  graph_hits : int Atomic.t;
  graph_misses : int Atomic.t;
  repair_hits : int Atomic.t;
  repair_misses : int Atomic.t;
}

let c_hit = Obs.Counter.make "service.cache.verdict_hits"
let c_miss = Obs.Counter.make "service.cache.verdict_misses"
let c_store_hit = Obs.Counter.make "service.cache.store_hits"
let c_store_miss = Obs.Counter.make "service.cache.store_misses"
let c_reval_ok = Obs.Counter.make "service.cache.revalidation_ok"
let c_reval_fail = Obs.Counter.make "service.cache.revalidation_failures"
let c_graph_hit = Obs.Counter.make "service.cache.graph_hits"
let c_graph_miss = Obs.Counter.make "service.cache.graph_misses"

(* Tier latency histograms: a hit costs hashing + (maybe) revalidation,
   a miss costs a full decide — separating them is what lets the
   metrics plane show the bimodal shape instead of one meaningless
   average. *)
let h_hit = Obs.Histogram.make "cache.hit"
let h_miss = Obs.Histogram.make "cache.miss"

let create ?(config = default_config) ?durable () =
  {
    config;
    verdicts = Lru.create ~capacity:config.verdict_capacity;
    durable;
    graphs = Lru.create ~capacity:config.graph_capacity;
    (* A text is memoized only once its verdict hit, so the memo never
       holds more live instances than the verdict store it fronts. *)
    texts = Lru.create ~capacity:config.verdict_capacity;
    verdict_hits = Atomic.make 0;
    verdict_misses = Atomic.make 0;
    store_hits = Atomic.make 0;
    store_misses = Atomic.make 0;
    store_drops = Atomic.make 0;
    revalidation_ok = Atomic.make 0;
    revalidation_failures = Atomic.make 0;
    graph_hits = Atomic.make 0;
    graph_misses = Atomic.make 0;
    repair_hits = Atomic.make 0;
    repair_misses = Atomic.make 0;
  }

let durable t = t.durable

let close t =
  match t.durable with None -> () | Some d -> Tier.close d

let bump a c =
  ignore (Atomic.fetch_and_add a 1);
  Obs.Counter.incr c

(* Two canonically-equal graphs have identical index structure (node
   count, sorted edge list, value partition in index order), so a
   relation expressed over one is valid verbatim over the other — the
   intern substitution below never remaps node ids. *)
let intern_graph t gkey g =
  match Lru.find t.graphs gkey with
  | Some g0 ->
      bump t.graph_hits c_graph_hit;
      g0
  | None ->
      bump t.graph_misses c_graph_miss;
      Lru.put t.graphs gkey g;
      g

let cacheable (o : Outcome.t) =
  match o.verdict with
  | Outcome.Definable _ | Outcome.Not_definable _ -> true
  | Outcome.Unknown _ -> false

(* Write-through: the memory tier serves the hot set, the durable tier
   (when configured) makes the verdict survive eviction and restart. *)
let store t key (e : entry) =
  Lru.put t.verdicts key e;
  match t.durable with
  | None -> ()
  | Some d ->
      Obs.Span.with_ "service.cache.store_put" @@ fun () ->
      Tier.put d key { Tier.lang = e.lang; k = e.k; inst = e.inst; outcome = e.outcome }

(* Promote a durable record into the memory tier.  The decoded entry
   carries its own rebuilt instance; nothing above needs to know the
   verdict crossed a disk boundary. *)
let find_durable t key =
  match t.durable with
  | None -> None
  | Some d -> (
      match Obs.Span.with_ "service.cache.store_find" (fun () -> Tier.find d key) with
      | None ->
          bump t.store_misses c_store_miss;
          None
      | Some r ->
          bump t.store_hits c_store_hit;
          let e = entry_of_record r in
          Lru.put t.verdicts key e;
          Some e)

let find_entry t key =
  match Lru.find t.verdicts key with
  | Some _ as s -> s
  | None -> find_durable t key

let drop t key =
  Lru.remove t.verdicts key;
  match t.durable with
  | None -> ()
  | Some d ->
      ignore (Atomic.fetch_and_add t.store_drops 1);
      Tier.remove d key

let hash ~lang ~k g s =
  Obs.Span.with_ "service.cache.hash" @@ fun () ->
  Content_hash.keys_and_bytes ~lang ~k g s

(* Whether [e] may be served: with [revalidate], its certificate must
   check, which is tried until it first succeeds and then remembered.
   Two racing first hits may both run the check; each reaches the same
   answer. *)
let certified t e =
  (not t.config.revalidate) || Atomic.get e.checked
  ||
  match Outcome.certificate e.outcome with
  | None -> true
  | Some cert -> (
      Obs.Span.with_ "service.cache.revalidate" @@ fun () ->
      match Outcome.check_certificate e.inst cert with
      | Ok () ->
          bump t.revalidation_ok c_reval_ok;
          Atomic.set e.checked true;
          true
      | Error _ -> false)

(* The verdict lookup proper, on an already parsed and hashed instance:
   memory tier, then durable tier, then decide. *)
let lookup t ?fuel ?deadline_s ~k ~lang { g; s; gkey; ikey; bytes } =
  let serve_miss () =
    bump t.verdict_misses c_miss;
    let g = intern_graph t gkey g in
    match Instance.create g s with
    | Error _ as e -> e
    | Ok inst -> (
        let budget = Budget.create ?fuel ?deadline_s () in
        match Registry.decide ~budget ~params:{ Registry.k } ~lang inst with
        | Error _ as e -> e
        | Ok outcome ->
            if cacheable outcome then
              store t ikey (entry ~bytes ~lang ~k outcome inst);
            Ok (outcome, `Miss))
  in
  match find_entry t ikey with
  | None -> serve_miss ()
  | Some e when String.equal e.bytes bytes && certified t e ->
      bump t.verdict_hits c_hit;
      Ok (e.outcome, `Hit)
  | Some _ ->
      (* Another problem's verdict filed under this digest, or a
         certificate that does not check: drop it (from both tiers) and
         recompute instead of serving it. *)
      bump t.revalidation_failures c_reval_fail;
      drop t ikey;
      serve_miss ()

(* [cache.hit] / [cache.miss] time a request from its first cache-side
   step to its outcome: from the graph for {!decide}, from the text for
   {!decide_text}. *)
let observe t0 origin =
  Obs.Histogram.record_s
    (match origin with `Hit -> h_hit | `Miss -> h_miss)
    (Unix.gettimeofday () -. t0)

let decide t ?fuel ?deadline_s ?(k = 1) ~lang g s =
  let observed = Obs.enabled () in
  let t0 = if observed then Unix.gettimeofday () else 0. in
  let gkey, ikey, bytes = hash ~lang ~k g s in
  let r = lookup t ?fuel ?deadline_s ~k ~lang { g; s; gkey; ikey; bytes } in
  (match r with Ok (_, origin) when observed -> observe t0 origin | _ -> ());
  r

let decide_text t ?fuel ?deadline_s ?(k = 1) ~lang text =
  let observed = Obs.enabled () in
  let t0 = if observed then Unix.gettimeofday () else 0. in
  let key = Content_hash.text_key ~lang ~k text in
  let memo = Lru.find t.texts key in
  let parsed =
    match memo with
    | Some p -> Ok p
    | None -> (
        match Graph_io.instance_of_string text with
        | Error msg -> Error ("instance: " ^ msg)
        | Ok (g, s) ->
            let gkey, ikey, bytes = hash ~lang ~k g s in
            Ok { g; s; gkey; ikey; bytes })
  in
  match parsed with
  | Error _ as e -> e
  | Ok p -> (
      match lookup t ?fuel ?deadline_s ~k ~lang p with
      | Error _ as e -> e
      | Ok (outcome, origin) ->
          (* Insert on a verdict hit only: a text seen once (every cold
             request) keeps nothing alive and pays no insertion. *)
          if origin = `Hit && Option.is_none memo then Lru.put t.texts key p;
          if observed then observe t0 origin;
          Ok (p.g, outcome, origin, p.ikey))

let find_instance t key = Option.map (fun e -> e.inst) (find_entry t key)

type delta_outcome = {
  outcome : Outcome.t;
  inst : Instance.t;
  key : string;
  repaired : bool;
}

(* Obs mirrors of the repair outcome live in [Engine.Delta]
   (delta.repair_hit / delta.repair_miss); the atomics here are the
   always-on copies the [stats] op reads. *)
let apply_edit t ?fuel ?deadline_s ?(k = 1) ~lang ~key edit =
  match find_entry t key with
  | None ->
      Error
        (Printf.sprintf
           "unknown instance digest %s (cold-decide it first; it may also have \
            been evicted)"
           key)
  | Some { outcome = prev; inst; _ } -> (
      let budget = Budget.create ?fuel ?deadline_s () in
      match
        Engine.Delta.decide_delta ~budget ~params:{ Registry.k } ~lang ~prev
          inst edit
      with
      | Error _ as e -> e
      | Ok { Engine.Delta.inst = inst'; outcome; repaired } ->
          ignore
            (Atomic.fetch_and_add
               (if repaired then t.repair_hits else t.repair_misses)
               1);
          (* The chained key costs O(edit), not O(graph): the edited
             instance is addressable by the follow-up delta request
             without re-canonicalizing the graph. *)
          let key' = Content_hash.chain_key ~parent:key edit in
          if cacheable outcome then
            store t key' (entry ~bytes:"" ~lang ~k outcome inst');
          Ok { outcome; inst = inst'; key = key'; repaired })

let insert t ?(k = 1) ~lang g s outcome =
  let gkey, ikey, bytes = Content_hash.keys_and_bytes ~lang ~k g s in
  let g = intern_graph t gkey g in
  match Instance.create g s with
  | Error _ as e -> e
  | Ok inst ->
      store t ikey (entry ~bytes ~lang ~k outcome inst);
      Ok ()

(* Warm transfer: the most recently used memory-tier entries, encoded in
   the tier record format (hex on the wire).  [import] is the mirror —
   decode, certificate-check, and write through both tiers, so a
   transferred entry is indistinguishable from a locally decided one. *)
let export_hot t ~limit =
  List.map
    (fun (key, (e : entry)) ->
      ( key,
        Tier.encode
          { Tier.lang = e.lang; k = e.k; inst = e.inst; outcome = e.outcome } ))
    (Lru.hot t.verdicts limit)

let import t ~key raw =
  match Tier.decode ~check:true raw with
  | Error _ as e -> e
  | Ok r ->
      store t key (entry_of_record r);
      Ok ()

let stats t =
  let tier =
    match t.durable with
    | None -> []
    | Some d -> List.map (fun (k, v) -> ("store_" ^ k, v)) (Tier.stats d)
  in
  List.sort compare
    ([
       ("verdict_hits", Atomic.get t.verdict_hits);
       ("verdict_misses", Atomic.get t.verdict_misses);
       ("store_hits", Atomic.get t.store_hits);
       ("store_misses", Atomic.get t.store_misses);
       ("store_drops", Atomic.get t.store_drops);
       ("revalidation_ok", Atomic.get t.revalidation_ok);
       ("revalidation_failures", Atomic.get t.revalidation_failures);
       ("graph_hits", Atomic.get t.graph_hits);
       ("graph_misses", Atomic.get t.graph_misses);
       ("delta_repair_hits", Atomic.get t.repair_hits);
       ("delta_repair_misses", Atomic.get t.repair_misses);
       ("verdict_size", Lru.length t.verdicts);
       ("graph_size", Lru.length t.graphs);
       ("verdict_evictions", Lru.evictions t.verdicts);
       ("graph_evictions", Lru.evictions t.graphs);
       ("text_hits", Lru.hits t.texts);
       ("text_misses", Lru.misses t.texts);
       ("text_evictions", Lru.evictions t.texts);
       ("text_size", Lru.length t.texts);
     ]
    @ tier)
