(* The workloads, generated from the run's seed.  The cluster sees
   only the rendered request lines: every line is pre-rendered and
   sealed here, before any process is spawned, so the timed loop does
   no encoding.  Every random choice goes through [Fault.Rng.mix] (no
   [Random]), so a seed names the same bytes on every host. *)

module Wire = Service.Wire
module Graph_gen = Datagraph.Graph_gen
module Graph_io = Datagraph.Graph_io
module Tuple_relation = Datagraph.Tuple_relation
module Rng = Fault.Rng

(* One decide as the wire carries it. *)
type problem = { lang : string; k : int option; fuel : int option; text : string }

let parse p =
  match Graph_io.instance_of_string p.text with
  | Ok gs -> gs
  | Error msg -> failwith ("generated instance does not parse: " ^ msg)

let request p =
  Wire.Decide
    { lang = p.lang; k = p.k; fuel = p.fuel; timeout_s = None; instance = p.text }

let seal_request r = Wire.seal_line (Wire.request_to_string r)
let instance_key p =
  let g, s = parse p in
  Service.Content_hash.instance_key ~lang:p.lang ~k:(Option.value p.k ~default:1) g s

(* The schedule CRC: a CRC-32 over the seal of every generated line (the
   seal is itself the line's CRC) and the op schedule, so two runs with
   equal CRCs sent byte-identical request lines in the same order. *)
let schedule_crc lines schedule =
  let b = Buffer.create 4096 in
  Array.iter
    (fun l ->
      let n = String.length l in
      Buffer.add_string b (if n >= 10 then String.sub l (n - 10) 8 else l))
    lines;
  Array.iter (fun i -> Buffer.add_string b (string_of_int i); Buffer.add_char b ',') schedule;
  Printf.sprintf "%08x" (Store.Crc32.digest_string (Buffer.contents b))

(* Redraw [perm] for epoch [e]: a Fisher-Yates shuffle keyed by the salt
   and the epoch. *)
let reshuffle ~salt perm e =
  let n = Array.length perm in
  for i = n - 1 downto 1 do
    let j = Rng.mix salt ((e * n) + i) mod (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done

(* Zipf over [n] ranks by inverse CDF.  The rank order is redrawn every
   [epoch] picks: one fixed order lets the single hottest key (a fifth of
   all picks at s = 1.1) set the median, so the figure would follow the
   seed; a drifting hot set makes one run average over many of them. *)
let zipf_schedule ~salt ~s ~n ~epoch ~length =
  let cdf =
    let w = Array.init n (fun r -> 1. /. Float.pow (float_of_int (r + 1)) s) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let pick u =
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let perm = Array.init n Fun.id in
  Array.init length (fun i ->
      if i mod epoch = 0 then reshuffle ~salt:(salt lxor 0x5EED) perm (i / epoch);
      perm.(pick (Rng.unit_float (Rng.mix salt i))))

(* ------------------------------------------------------------------ *)
(* serve-hot: the BENCH_8-10 trace population — 256 rem instances over
   random graphs with n = 4, delta = 2, instance i drawn from seed i —
   under Zipf s = 1.1.  The population is the same in every run; the
   run's seed draws the schedule.  The p99 is made of the few costliest
   instances (seed 4's population: one instance with a 342 us median
   gave 365 of the 1294 decides beyond the p99), so a population drawn
   from the run's seed made the p99 follow the seed. *)

type serve_hot = {
  hot_problems : problem array;
  hot_lines : string array;
  hot_picks : int array;  (* cyclic schedule of indices into the lines *)
}

let hot_pool = 256
let hot_epoch = 256

let serve_hot ~seed =
  let hot_problems =
    Array.init hot_pool (fun i ->
        let g = Graph_gen.random ~seed:i ~n:4 ~delta:2 ~labels:[ "a" ] ~density:0.4 () in
        let rel = Graph_gen.random_reachable_relation ~seed:i g ~count:2 in
        { lang = "rem"; k = None; fuel = None;
          text = Graph_io.instance_to_string g (Tuple_relation.of_binary rel) })
  in
  {
    hot_problems;
    hot_lines = Array.map (fun p -> seal_request (request p)) hot_problems;
    hot_picks =
      zipf_schedule ~salt:(seed lxor 0x21BF) ~s:1.1 ~n:hot_pool ~epoch:hot_epoch
        ~length:(1024 * hot_epoch);
  }

(* ------------------------------------------------------------------ *)
(* solve-cold: instances the cluster has never seen, cycling through a
   fixed class table.  The weights keep any language from taking the
   bulk of the decide time; each run reports every language's measured
   share (between 0.12 for krem and 0.31 for rpq on a 2-vCPU host).
   Fuel is fixed per request and there is no deadline, so every verdict
   (unknown included) is a deterministic function of the instance. *)

type cold_class = {
  c_lang : string;
  c_k : int option;
  family : string;
  nodes : int * int;  (* random family: node-count range *)
  c_fuel : int;
  weight : int;
}

let cold_classes =
  let c ?k ?(nodes = (0, 0)) lang family ~fuel weight =
    { c_lang = lang; c_k = k; family; nodes; c_fuel = fuel; weight }
  in
  [
    c "rpq" "random" ~nodes:(6, 8) ~fuel:4000 20;
    c "rpq" "fig1" ~fuel:4000 8;
    c "rem" "random" ~nodes:(4, 6) ~fuel:4000 8;
    c "rem" "fig1" ~fuel:4000 4;
    c "krem" ~k:2 "random" ~nodes:(3, 4) ~fuel:4000 1;
    c "krem" ~k:2 "fig1" ~fuel:4000 1;
    c "ree" "random" ~nodes:(3, 4) ~fuel:400 2;
    c "ree" "fig1" ~fuel:400 1;
    c "ucrdpq" "random" ~nodes:(6, 8) ~fuel:4000 4;
    c "ucrdpq" "fig1" ~fuel:4000 4;
    c "ucrdpq" "sat" ~fuel:4000 1;
  ]

let class_cycle =
  Array.of_list
    (List.concat_map (fun c -> List.init c.weight (fun _ -> c)) cold_classes)

let fig1 = lazy (Graph_gen.fig1 ())

let cold_instance ~salt c =
  let g, rel =
    match c.family with
    | "random" ->
        let lo, hi = c.nodes in
        let n = lo + (salt mod (hi - lo + 1)) in
        let g =
          Graph_gen.random ~seed:salt ~n ~delta:(2 + (salt / 7 mod 2))
            ~labels:[ "a"; "b" ] ~density:0.3 ()
        in
        (g, Tuple_relation.of_binary
              (Graph_gen.random_reachable_relation ~seed:salt g ~count:(1 + (salt / 3 mod 3))))
    | "fig1" ->
        let g = Lazy.force fig1 in
        (g, Tuple_relation.of_binary
              (Graph_gen.random_reachable_relation ~seed:salt g ~count:(1 + (salt / 3 mod 4))))
    | "sat" ->
        let f =
          Reductions.Cnf.random ~seed:salt ~num_vars:3 ~num_clauses:(2 + (salt mod 2)) ()
        in
        let r = Reductions.Sat_reduction.build f in
        (r.Reductions.Sat_reduction.graph, r.Reductions.Sat_reduction.target)
    | f -> invalid_arg ("unknown family " ^ f)
  in
  { lang = c.c_lang; k = c.c_k; fuel = Some c.c_fuel; text = Graph_io.instance_to_string g rel }

type solve_cold = {
  cold_problems : problem array;  (* the warm-up pass, then the window's *)
  cold_lines : string array;
}

let cold_warmup = 256

(* The warm-up pass is the same [cold_warmup] problems for every seed, so
   the set-up time it adds does not follow the seed's mix of hard and
   easy instances. *)
let cold_warmup_salt = 0x3A2F0C01D

(* [cold_warmup + count] problems, pairwise distinct by
   [Content_hash.instance_key]: the warm-up pass takes the first
   [cold_warmup], the window the rest in order. *)
let solve_cold ~seed ~count =
  let seen = Hashtbl.create (2 * count) in
  let draw ~salt0 n =
    let out = ref [] and made = ref 0 and i = ref 0 in
    while !made < n do
      let c = class_cycle.(!i mod Array.length class_cycle) in
      let p = cold_instance ~salt:(Rng.mix salt0 !i) c in
      incr i;
      let key = instance_key p in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := p :: !out;
        incr made
      end
    done;
    List.rev !out
  in
  let warm = draw ~salt0:cold_warmup_salt cold_warmup in
  let cold_problems = Array.of_list (warm @ draw ~salt0:(seed lxor 0xC01D) count) in
  { cold_problems; cold_lines = Array.map (fun p -> seal_request (request p)) cold_problems }
