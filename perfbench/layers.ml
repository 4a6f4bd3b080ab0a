(* The traced run's per-layer figures, from three sources and no code
   inside the service:

   - scraped: the router's merged [stats] and [metrics] replies, taken
     before and after the window and differenced;
   - timed here: each layer's public function, called in this process on
     the workload's own inputs, outside the timed window;
   - the shards' runtime-events rings (OCAML_RUNTIME_EVENTS_START=1 in
     their environment), read while the window runs. *)

module Wire = Service.Wire
module Json = Service.Json
module Client = Service.Client
module Metrics = Service.Metrics
module Outcome = Engine.Outcome

type metric = string * float * string

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let median_of l =
  match List.sort compare l with
  | [] -> 0.
  | s -> List.nth s ((List.length s - 1) / 2)

(* ------------------------------------------------------------------ *)
(* Scraped. *)

type scrape = { stats : Json.t; snap : Metrics.snapshot }

let request addr r =
  let c = Client.connect ~retries:3 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request c r with
  | Ok j -> j
  | Error msg -> failwith ("scrape: " ^ msg)

let scrape addr =
  let stats = request addr Wire.Stats in
  let snap =
    match Option.map Metrics.of_json (Json.member "data" (request addr Wire.Metrics)) with
    | Some (Ok s) -> s
    | _ -> failwith "scrape: metrics reply without a snapshot"
  in
  { stats; snap }

let stat s path =
  let rec go j = function
    | [] -> Json.to_int j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  Option.value ~default:0 (go s.stats path)

(* Exported percentiles are bucket upper bounds (the service's own
   log-bucketed histograms); an empty histogram reads 0. *)
let hist_pct ~before ~after name p =
  let get s = List.assoc_opt name s.snap.Metrics.histograms in
  match (get before, get after) with
  | _, None -> 0.
  | b, Some (a : Obs.Histogram.snapshot) ->
      let counts =
        Array.mapi
          (fun i c ->
            match b with
            | Some (b : Obs.Histogram.snapshot) when i < Array.length b.Obs.Histogram.counts ->
                c - b.Obs.Histogram.counts.(i)
            | _ -> c)
          a.Obs.Histogram.counts
      in
      let d = { Obs.Histogram.counts; sum_ns = 0 } in
      if Obs.Histogram.total d = 0 then 0.
      else float_of_int (Obs.Histogram.percentile_of d p) /. 1000.

(* [before]/[after] bracket the window; [deltas] the delta probe that
   follows it (the workloads send no delta in the window). *)
let scraped ~before ~after ~deltas:(d0, d1) ~errors : metric list =
  let d path = stat after path - stat before path in
  let s name = d [ "stats"; name ] in
  let sd name = stat d1 [ "stats"; name ] - stat d0 [ "stats"; name ] in
  let hits = s "cache_verdict_hits" and misses = s "cache_verdict_misses" in
  let p = hist_pct ~before ~after in
  [
    ("server.op_decide_p50_us", p "op.decide" 50., "us");
    ("server.op_decide_p99_us", p "op.decide" 99., "us");
    ("server.op_delta_p50_us", hist_pct ~before:d0 ~after:d1 "op.delta" 50., "us");
    ("server.overloaded", float_of_int (s "overloaded"), "count");
    ("router.forward_errors", float_of_int (d [ "router"; "forward_errors" ]), "count");
  ]
  @ List.map
      (fun cls ->
        ( "errors." ^ cls,
          float_of_int (Option.value ~default:0 (List.assoc_opt cls errors)),
          "count" ))
      Verify.error_classes
  @ [
      ("pool.queue_wait_p50_us", p "pool.queue_wait" 50., "us");
      ("pool.queue_wait_p99_us", p "pool.queue_wait" 99., "us");
      ( "pool.steal_success_ratio",
        ratio (s "pool_steal_success") (s "pool_steal_success" + s "pool_steal_fail"),
        "ratio" );
      ("cache.hit_p50_us", p "cache.hit" 50., "us");
      ("cache.revalidations_per_hit", ratio (s "cache_revalidation_ok") hits, "ratio");
      ("cache.verdict_hit_ratio", ratio hits (hits + misses), "ratio");
      ("cache.miss_p50_us", p "cache.miss" 50., "us");
      ( "cache.graph_hit_ratio",
        ratio (s "cache_graph_hits") (s "cache_graph_hits" + s "cache_graph_misses"),
        "ratio" );
      ("cache.verdict_evictions", float_of_int (s "cache_verdict_evictions"), "count");
      ( "delta.repair_hit_ratio",
        ratio (sd "cache_delta_repair_hits")
          (sd "cache_delta_repair_hits" + sd "cache_delta_repair_misses"),
        "ratio" );
      ("store.append_p50_us", p "store.append" 50., "us");
      ("store.fsync_p50_us", p "store.fsync" 50., "us");
      ("store.fsyncs", float_of_int (s "cache_store_fsyncs"), "count");
      ( "store.bytes_per_put",
        ratio (s "cache_store_log_bytes") (s "cache_store_appends"),
        "bytes" );
    ]

(* ------------------------------------------------------------------ *)
(* Runtime events of the shards. *)

type gc = {
  cursors : Runtime_events.cursor list;
  mutable counting : bool;
  mutable minors : int;
  mutable slices : int;
  mutable pauses : float list;  (* µs *)
  mutable lost : int;
  open_spans : (int * int * Runtime_events.runtime_phase, int64) Hashtbl.t;
}

let gc_open (c : Cluster.t) =
  let dir = Option.get c.Cluster.events_dir in
  {
    cursors =
      Array.to_list
        (Array.map (fun (p : Cluster.proc) -> Runtime_events.create_cursor (Some (dir, p.Cluster.pid))) c.Cluster.shards);
    counting = false;
    minors = 0;
    slices = 0;
    pauses = [];
    lost = 0;
    open_spans = Hashtbl.create 16;
  }

let gc_poll g =
  List.iteri
    (fun ci cur ->
      let runtime_begin ring ts phase =
        match phase with
        | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE ->
            Hashtbl.replace g.open_spans (ci, ring, phase) (Runtime_events.Timestamp.to_int64 ts)
        | _ -> ()
      in
      let runtime_end ring ts phase =
        match Hashtbl.find_opt g.open_spans (ci, ring, phase) with
        | Some t0 when g.counting ->
            Hashtbl.remove g.open_spans (ci, ring, phase);
            let us = Int64.to_float (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0) /. 1000. in
            g.pauses <- us :: g.pauses;
            if phase = Runtime_events.EV_MINOR then g.minors <- g.minors + 1
            else g.slices <- g.slices + 1
        | Some _ -> Hashtbl.remove g.open_spans (ci, ring, phase)
        | None -> ()
      in
      let lost_events _ n = if g.counting then g.lost <- g.lost + n in
      let cb = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
      ignore (Runtime_events.read_poll cur cb None))
    g.cursors

let gc_close g = List.iter Runtime_events.free_cursor g.cursors

(* ------------------------------------------------------------------ *)
(* Timed here. *)

let time_us f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e6)

(* The cost of [f x]: the median of three timed calls when one call is
   slow, else of five timed runs of 8 back-to-back calls (so that a
   microsecond clock resolves a few-microsecond layer). *)
let item_us f x =
  let once () = snd (time_us (fun () -> ignore (Sys.opaque_identity (f x)))) in
  let first = once () in
  if first > 200. then median_of [ first; once (); once () ]
  else
    median_of
      (List.init 5 (fun _ ->
           snd (time_us (fun () -> for _ = 1 to 8 do ignore (Sys.opaque_identity (f x)) done)) /. 8.))

let median_over xs f = median_of (List.map f xs)

type probe = {
  p : Gen.problem;
  line : string;  (* the sealed decide line *)
  g : Datagraph.Data_graph.t;
  s : Datagraph.Tuple_relation.t;
  inst : Engine.Instance.t;
  outcome : Outcome.t;  (* the reference outcome *)
  shard_side_us : float;  (* this decide's shard-side layers, timed here *)
}

let cacheable o = match o.Outcome.verdict with Outcome.Unknown _ -> false | _ -> true

(* The shard-side layers of a warm decide, each called here as the shard
   calls it: request seal check + parse, instance parse, the cache hit
   (content hash, LRU, certificate revalidation) and the verdict render. *)
let shard_layers =
  [
    ("wire.request_parse_us", fun pr _ -> ignore (Wire.crc_status pr.line, Wire.request_of_string pr.line));
    ("graph_io.instance_parse_us", fun pr _ -> ignore (Datagraph.Graph_io.instance_of_string pr.p.Gen.text));
    ( "cache.warm_hit_us",
      fun pr cache ->
        ignore (Service.Cache.decide cache ?fuel:pr.p.Gen.fuel ?k:pr.p.Gen.k ~lang:pr.p.Gen.lang pr.g pr.s) );
    ( "wire.verdict_render_us",
      fun pr _ -> ignore (Wire.seal_line (Wire.verdict_to_string pr.g ~lang:pr.p.Gen.lang pr.outcome)) );
  ]

(* Up to [limit] of the problems whose reference outcome is cacheable,
   each with its shard-side cost measured against a warm cache. *)
let probes_of ?(limit = 64) problems =
  let cache = Service.Cache.create () in
  let chosen =
    List.filteri (fun i _ -> i < limit)
      (List.filter_map
         (fun p ->
           let g, s = Gen.parse p in
           let inst = Engine.Instance.create_exn g s in
           let outcome = Verify.reference_outcome p inst in
           if cacheable outcome then
             Some { p; line = Gen.seal_request (Gen.request p); g; s; inst; outcome; shard_side_us = 0. }
           else None)
         (Array.to_list problems))
  in
  List.iter (fun pr -> ignore (Service.Cache.decide cache ?fuel:pr.p.Gen.fuel ?k:pr.p.Gen.k ~lang:pr.p.Gen.lang pr.g pr.s)) chosen;
  List.map
    (fun pr ->
      { pr with shard_side_us = List.fold_left (fun acc (_, f) -> acc +. item_us (f pr) cache) 0. shard_layers })
    chosen

(* Round-trip median of one line sent to an address, [n] times. *)
let rtt_us addr line n =
  let c = Client.connect ~retries:3 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  median_of (List.init n (fun _ -> snd (time_us (fun () -> Client.request_raw c line))))

(* Hop and residual: the same warm lines sent through the router and
   straight to the owning shard ([Service.Ring] over the router's shard
   names), interleaved.  The hop is the difference of the medians; the
   residual is the median over lines of shard-direct time minus that
   line's shard-side layers — socket, handler, admission and pool hop,
   the time no layer above accounts for. *)
let cluster_probes (c : Cluster.t) probes : metric list =
  let shards = Array.to_list c.Cluster.shards in
  let ring = Service.Ring.create (List.map (fun (p : Cluster.proc) -> p.Cluster.name) shards) in
  let ping = Wire.request_to_string Wire.Ping in
  let ping_router = rtt_us c.Cluster.router.Cluster.addr ping 2000 in
  let ping_shard = rtt_us c.Cluster.shards.(0).Cluster.addr ping 2000 in
  let router = Client.connect ~retries:3 c.Cluster.router.Cluster.addr in
  let direct =
    List.map (fun (p : Cluster.proc) -> (p.Cluster.name, Client.connect ~retries:3 p.Cluster.addr)) shards
  in
  let owner pr = List.assoc (Service.Ring.shard ring (Gen.instance_key pr.p)) direct in
  let misses = ref 0 in
  let send conn line =
    let r, us = time_us (fun () -> Client.request_raw conn line) in
    (match r with
    | Ok l when Verify.member_raw l 0 "cache" = Some "\"hit\"" -> ()
    | _ -> incr misses);
    us
  in
  (* One untimed pass makes every probe warm on its owner. *)
  List.iter (fun pr -> ignore (send router pr.line)) probes;
  misses := 0;
  let rounds = max 1 (1024 / max 1 (List.length probes)) in
  let timed =
    List.map
      (fun pr ->
        let conn = owner pr in
        let pairs = List.init rounds (fun _ -> (send router pr.line, send conn pr.line)) in
        (pr, List.map fst pairs, List.map snd pairs))
      probes
  in
  Client.close router;
  List.iter (fun (_, cl) -> Client.close cl) direct;
  if !misses > 0 then
    Printf.eprintf "perfbench: %d probe replies were not warm hits on the ring's owner\n" !misses;
  let all f = List.concat_map f timed in
  [
    ("client.ping_router_us", ping_router, "us");
    ("client.ping_shard_us", ping_shard, "us");
    ("router.hop_us", median_of (all (fun (_, r, _) -> r)) -. median_of (all (fun (_, _, d) -> d)), "us");
    ("residual.shard_us", median_over timed (fun (pr, _, d) -> median_of d -. pr.shard_side_us), "us");
  ]

(* An always-applicable edit chain, built like [Load.Workload]'s: add a
   fresh node, then an edge from it to the first node, and so on. *)
let chain_of (p : probe) =
  let g = p.g in
  let first = Datagraph.Data_graph.name g (List.hd (Datagraph.Data_graph.nodes g)) in
  let label = List.hd (Datagraph.Data_graph.alphabet g) in
  let v = Datagraph.Data_value.to_int (List.hd (Datagraph.Data_graph.domain g)) in
  Array.init 6 (fun j ->
      let name = Printf.sprintf "zz%d" (j / 2) in
      if j land 1 = 0 then Wire.Add_node (name, v) else Wire.Add_edge (name, label, first))

let langs = [ "rpq"; "rem"; "krem"; "ree"; "ucrdpq" ]

(* A problem re-posed in another language, with a small fixed fuel so a
   hard re-posing costs little (its [unknown] is still a timed decide). *)
let repose lang (p : Gen.problem) =
  if p.Gen.lang = lang then p
  else { p with Gen.lang; k = (if lang = "krem" then Some 2 else None); fuel = Some 400 }

let in_process ~(problems : Gen.problem array) ~(probes : probe list) ~service_pool : metric list =
  let layer name f = (name, median_over probes (item_us f), "us") in
  let warm_hit lang =
    (* a warm cache holding the probes re-posed in [lang]; only the
       cacheable ones are hits *)
    let cache = Service.Cache.create () in
    let hits =
      List.filter_map
        (fun pr ->
          let p = repose lang pr.p in
          let d () = Service.Cache.decide cache ?fuel:p.Gen.fuel ?k:p.Gen.k ~lang pr.g pr.s in
          ignore (d ());
          match d () with Ok (_, `Hit) -> Some d | _ -> None)
        probes
    in
    ("cache.warm_hit_us." ^ lang, median_over hits (fun d -> item_us d ()), "us")
  in
  let certs = List.filter_map (fun pr -> Option.map (fun c -> (pr.inst, c)) (Outcome.certificate pr.outcome)) probes in
  (* Deciders per language on the workload's own instances: those posed
     in that language, else the first ones re-posed in it; each call on
     a freshly parsed instance, as a cache miss sees it. *)
  let registry =
    List.concat_map
      (fun lang ->
        let own = List.filter (fun (p : Gen.problem) -> p.Gen.lang = lang) (Array.to_list problems) in
        let chosen =
          List.filteri (fun i _ -> i < 8)
            (if own <> [] then own else List.map (repose lang) (Array.to_list problems))
        in
        let decide p = Verify.reference_outcome p (let g, s = Gen.parse p in Engine.Instance.create_exn g s) in
        let run size =
          Par.Pool.set_size size;
          median_over chosen (fun p -> median_of (List.init 3 (fun _ -> snd (time_us (fun () -> decide p)))))
        in
        let us = run service_pool in
        let us1 = run 1 in
        let steps = List.fold_left (fun acc p -> acc + (decide p).Outcome.stats.Outcome.steps) 0 chosen in
        [
          ("registry.decide_us." ^ lang, us, "us");
          ("registry.decide_us_d1." ^ lang, us1, "us");
          ("registry.steps." ^ lang, float_of_int steps, "steps");
        ])
      langs
  in
  Par.Pool.set_size 1;
  (* Delta chains from the probes, walked as the shard walks them. *)
  let chain_keys = ref [] and repairs = ref [] and fallbacks = ref [] in
  List.iter
    (fun pr ->
      let inst = ref pr.inst and prev = ref pr.outcome and key = ref (Gen.instance_key pr.p) in
      Array.iter
        (fun edit ->
          if cacheable !prev then
            match Wire.resolve_edit (Engine.Instance.graph !inst) edit with
            | Error _ -> ()
            | Ok ge -> (
                chain_keys := item_us (fun () -> Service.Content_hash.chain_key ~parent:!key ge) () :: !chain_keys;
                key := Service.Content_hash.chain_key ~parent:!key ge;
                let budget = Engine.Budget.create ~fuel:(Option.value pr.p.Gen.fuel ~default:4000) () in
                match
                  time_us (fun () ->
                      Engine.Delta.decide_delta ~budget ~params:(Verify.params pr.p) ~lang:pr.p.Gen.lang
                        ~prev:!prev !inst ge)
                with
                | Ok r, us ->
                    if r.Engine.Delta.repaired then repairs := us :: !repairs
                    else fallbacks := us :: !fallbacks;
                    inst := r.Engine.Delta.inst;
                    prev := r.Engine.Delta.outcome
                | Error _, _ -> ()))
        (chain_of pr))
    (List.filteri (fun i _ -> i < 16) probes);
  [
    layer "wire.request_encode_us" (fun pr -> Wire.seal_line (Wire.request_to_string (Gen.request pr.p)));
    layer "wire.request_parse_us" (fun pr -> (Wire.crc_status pr.line, Wire.request_of_string pr.line));
    layer "graph_io.instance_parse_us" (fun pr -> Datagraph.Graph_io.instance_of_string pr.p.Gen.text);
    layer "content_hash.keys_us" (fun pr ->
        Service.Content_hash.keys ~lang:pr.p.Gen.lang ~k:(Option.value pr.p.Gen.k ~default:1) pr.g pr.s);
    warm_hit "rem";
    warm_hit "ree";
    ("outcome.check_certificate_us", median_over certs (item_us (fun (i, c) -> Outcome.check_certificate i c)), "us");
    layer "wire.verdict_render_us" (fun pr ->
        Wire.seal_line (Wire.verdict_to_string pr.g ~lang:pr.p.Gen.lang pr.outcome));
  ]
  @ registry
  @ [
      ("content_hash.chain_key_us", median_of !chain_keys, "us");
      ("delta.repair_us", median_of !repairs, "us");
      ("delta.fallback_us", median_of !fallbacks, "us");
    ]

(* Delta chains over the wire, after the window: through the router,
   decide a probe, then walk its edit chain by [delta] ops, each reply
   checked byte for byte against [Engine.Delta.decide_delta] run here
   from the reference outcome of the previous step.  A step whose
   parent outcome is [unknown] is not sent (the service keeps no such
   entry).  Returns the steps sent and the wrong replies. *)
let delta_probe (c : Cluster.t) probes =
  let conn = Client.connect ~retries:3 c.Cluster.router.Cluster.addr in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let sent = ref 0 and wrong = ref [] in
  let digest_of line =
    Option.map (fun d -> String.sub d 1 (String.length d - 2)) (Verify.member_raw line 0 "digest")
  in
  List.iter
    (fun pr ->
      match Client.request_raw conn pr.line with
      | Error msg -> wrong := ("delta probe base: " ^ msg) :: !wrong
      | Ok line ->
          let digest = ref (digest_of line) and inst = ref pr.inst and prev = ref pr.outcome in
          Array.iter
            (fun edit ->
              match (!digest, Wire.resolve_edit (Engine.Instance.graph !inst) edit) with
              | Some d, Ok ge when cacheable !prev -> (
                  let budget = Engine.Budget.create ?fuel:pr.p.Gen.fuel () in
                  match
                    Engine.Delta.decide_delta ~budget ~params:(Verify.params pr.p) ~lang:pr.p.Gen.lang
                      ~prev:!prev !inst ge
                  with
                  | Error msg -> failwith ("reference delta: " ^ msg)
                  | Ok r ->
                      let expect =
                        Wire.verdict_to_string (Engine.Instance.graph r.Engine.Delta.inst)
                          ~lang:pr.p.Gen.lang r.Engine.Delta.outcome
                      in
                      incr sent;
                      let req =
                        Gen.seal_request
                          (Wire.Delta
                             { lang = pr.p.Gen.lang; k = pr.p.Gen.k; fuel = pr.p.Gen.fuel;
                               timeout_s = None; digest = d; edit })
                      in
                      let next = Service.Content_hash.chain_key ~parent:d ge in
                      (match
                         Verify.judge ~forbid_hit:false ~digest:next ~expect
                           (Client.request_raw conn req)
                       with
                      | Verify.Ok_op -> ()
                      | Verify.Failed cls -> wrong := ("delta probe: " ^ cls) :: !wrong
                      | Verify.Wrong why -> wrong := ("delta probe: " ^ why) :: !wrong);
                      digest := Some next;
                      inst := r.Engine.Delta.inst;
                      prev := r.Engine.Delta.outcome)
              | _ -> digest := None)
            (chain_of pr))
    (List.filteri (fun i _ -> i < 16) probes);
  (!sent, List.rev !wrong)
