(* perfbench: the repository benchmark.  One run = one workload against
   a fresh 2-shard defcheck cluster, closed loop, every reply checked.

     perfbench --workload serve-hot|solve-cold --seed N
               --seconds S --trace 0|1

   The last stdout line is one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0, the per-layer ones
   with --trace 1.  The line before it is the full report (sample
   counts, error classes, schedule CRC, host tag).  Exit 1 when the
   correctness gate fails, 2 on a usage or set-up error. *)

module Wire = Service.Wire

let () = Definability.Deciders.init ()

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Statistics over raw samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of sorted samples. *)
let pct s p =
  let n = Array.length s in
  s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

(* The median; for an even count, the mean of the two middle values. *)
let median a =
  let s = sorted a and n = Array.length a in
  if n = 0 then nan else if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A p99 is reported only with at least 10 samples beyond it. *)
let p99 s =
  let n = Array.length s in
  let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
  if n - rank >= 10 then Ok s.(rank - 1)
  else Error (Printf.sprintf "%d samples: fewer than 10 beyond the p99" n)

(* ------------------------------------------------------------------ *)
(* JSON output. *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metric_json (name, value, unit) =
  Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Wire.json_string name) (num value)
    (Wire.json_string unit)

(* ------------------------------------------------------------------ *)
(* Host tag. *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))
  with Sys_error _ -> None

(* The revision the cluster was built from: git's HEAD when the tree is a
   checkout, else an MD5 over the service sources (lib/, bin/). *)
let revision () =
  let git =
    match Option.map String.trim (read_file ".git/HEAD") with
    | Some head when String.starts_with ~prefix:"ref: " head ->
        let r = String.sub head 5 (String.length head - 5) in
        Option.map (fun h -> "git:" ^ String.trim h) (read_file (Filename.concat ".git" r))
    | Some head -> Some ("git:" ^ head)
    | None -> None
  in
  match git with
  | Some g -> g
  | None ->
      let rec files dir =
        match Sys.readdir dir with
        | exception Sys_error _ -> []
        | names ->
            Array.sort compare names;
            List.concat_map
              (fun n ->
                let p = Filename.concat dir n in
                if Sys.is_directory p then files p
                else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                        || n = "dune"
                then [ p ]
                else [])
              (Array.to_list names)
      in
      let b = Buffer.create 65536 in
      List.iter
        (fun p ->
          Buffer.add_string b p;
          Option.iter (Buffer.add_string b) (read_file p))
        (files "lib" @ files "bin");
      "src-md5:" ^ Digest.to_hex (Digest.string (Buffer.contents b))

(* Filesystem type of the mount holding [dir]. *)
let filesystem dir =
  let abs = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  match read_file "/proc/mounts" with
  | None -> "unknown"
  | Some mounts ->
      List.fold_left
        (fun (best_len, best) line ->
          match String.split_on_char ' ' line with
          | _ :: mnt :: fs :: _
            when String.starts_with ~prefix:mnt abs && String.length mnt > best_len ->
              (String.length mnt, fs)
          | _ -> (best_len, best))
        (-1, "unknown")
        (String.split_on_char '\n' mounts)
      |> snd

(* ------------------------------------------------------------------ *)
(* Workload plans. *)

type plan = {
  conns : int;
  crc : string;
  warmup : Loop.worker -> unit;  (* one connection, inside setup_s *)
  reset : unit -> unit;  (* rewind the schedule before a window *)
  step : Loop.worker -> bool;  (* one op; [false] = schedule spent *)
  refs : int list -> int -> string;
      (* reference verdict blocks for the given problems (computed once,
         together), then the reference of one problem *)
  forbid_hit : bool;
  problems : Gen.problem array;  (* indexed by [Loop.record.check] *)
  fuel_tag : string;
}

(* References are computed once per check id, after the window, on a
   domain pool as wide as the machine. *)
let memo_refs ~compute =
  let tbl = Hashtbl.create 1024 in
  fun ids ->
    let todo = Array.of_list (List.filter (fun i -> not (Hashtbl.mem tbl i)) (List.sort_uniq compare ids)) in
    Par.Pool.set_size (Domain.recommended_domain_count ());
    let refs = Par.Pool.map ~chunk:1 compute todo in
    Par.Pool.set_size 1;
    Array.iteri (fun i id -> Hashtbl.replace tbl id refs.(i)) todo;
    Hashtbl.find tbl

let decide_plan ~conns ~crc ~(problems : Gen.problem array) ~(lines : string array) ~warm
    ~(next : unit -> int option) ~reset ~forbid_hit ~fuel_tag =
  {
    conns;
    crc;
    warmup =
      (fun w ->
        Array.iter
          (fun i -> Loop.send w ~check:i lines.(i))
          warm);
    reset;
    step =
      (fun w ->
        match next () with
        | None -> false
        | Some i ->
            Loop.send w ~check:i lines.(i);
            true);
    refs = memo_refs ~compute:(fun i -> Verify.reference problems.(i));
    forbid_hit;
    problems;
    fuel_tag;
  }

let serve_hot ~seed =
  let h = Gen.serve_hot ~seed in
  let cursor = ref 0 in
  let n = Array.length h.Gen.hot_picks in
  decide_plan ~conns:1
    ~crc:(Gen.schedule_crc h.Gen.hot_lines h.Gen.hot_picks)
    ~problems:h.Gen.hot_problems ~lines:h.Gen.hot_lines
    ~warm:(Array.init Gen.hot_pool Fun.id)
    ~next:(fun () ->
      let i = h.Gen.hot_picks.(!cursor mod n) in
      incr cursor;
      Some i)
    ~reset:(fun () -> cursor := 0)
    ~forbid_hit:false ~fuel_tag:"unbounded"

(* Enough distinct instances for the fastest rate solve-cold reaches on
   this kind of host, with a wide margin; running out fails the run. *)
let cold_capacity seconds = 2500 * int_of_float (Float.ceil seconds) + 2000

let solve_cold ~seed ~seconds =
  let c = Gen.solve_cold ~seed ~count:(cold_capacity seconds) in
  let n = Array.length c.Gen.cold_lines in
  let cursor = Atomic.make Gen.cold_warmup in
  let exhausted = Atomic.make false in
  let plan =
    decide_plan ~conns:2
      ~crc:(Gen.schedule_crc c.Gen.cold_lines [||])
      ~problems:c.Gen.cold_problems ~lines:c.Gen.cold_lines
      ~warm:(Array.init Gen.cold_warmup Fun.id)
      ~next:(fun () ->
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then Some i
        else begin
          Atomic.set exhausted true;
          None
        end)
      ~reset:(fun () -> Atomic.set cursor Gen.cold_warmup)
      ~forbid_hit:true
      ~fuel_tag:"per class (see gen.ml)"
  in
  (plan, exhausted)

(* ------------------------------------------------------------------ *)
(* Judging a set of records. *)

type judged = {
  attempted : int;
  ok : int;
  classes : (string * int) list;  (* failures by class *)
  wrong : string list;  (* correctness failures (first few) *)
  n_wrong : int;
  good : Loop.record list;  (* the successful ops *)
}

(* Sorted latencies of the successful decides. *)
let lat ?(keep = fun _ -> true) j =
  sorted
    (Array.of_list
       (List.filter_map (fun (r : Loop.record) -> if keep r then Some r.Loop.us else None) j.good))

let judge plan (records : Loop.record list) =
  let classes = Hashtbl.create 8 and wrong = ref [] and n_wrong = ref 0 and ok = ref 0 in
  let good = ref [] in
  let expect = plan.refs (List.map (fun (r : Loop.record) -> r.Loop.check) records) in
  List.iter
    (fun (r : Loop.record) ->
      match Verify.judge ~forbid_hit:plan.forbid_hit ~expect:(expect r.Loop.check) r.Loop.reply with
      | Verify.Ok_op ->
          incr ok;
          good := r :: !good
      | Verify.Failed cls ->
          Hashtbl.replace classes cls (1 + Option.value ~default:0 (Hashtbl.find_opt classes cls))
      | Verify.Wrong why ->
          incr n_wrong;
          if !n_wrong <= 5 then wrong := why :: !wrong)
    records;
  {
    attempted = List.length records;
    ok = !ok;
    classes = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) classes []);
    wrong = List.rev !wrong;
    n_wrong = !n_wrong;
    good = !good;
  }

(* Exact percentiles over every successful decide of the window. *)
let latency_report j =
  let s = lat j in
  let n = Array.length s in
  Printf.sprintf "\"decide\":{\"samples\":%d,\"p50_us\":%s,\"tail_us\":{%s},\"p99_us\":%s}" n
    (if n = 0 then "null" else num (pct s 50.))
    (if n = 0 then ""
     else String.concat "," (List.map (fun p -> Printf.sprintf "\"p%g\":%s" p (num (pct s p))) [ 90.; 95.; 97.; 98.; 98.5; 99.; 99.5; 99.9 ]))
    (match p99 s with Ok v -> num v | Error why -> "null,\"p99_null\":" ^ Wire.json_string why)

(* Each language's ops and share of the window's client-side decide
   time, so the balance of the solve-cold mix is measured, not assumed. *)
let lang_report plan j =
  let tbl = Hashtbl.create 8 and total = ref 0. in
  List.iter
    (fun (r : Loop.record) ->
      let l = plan.problems.(r.Loop.check).Gen.lang in
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (n + 1, t +. r.Loop.us);
      total := !total +. r.Loop.us)
    j.good;
  Wire.json_obj
    (List.map
       (fun (l, (n, t)) ->
         (l, Printf.sprintf "{\"ops\":%d,\"time_share\":%s}" n (num (t /. !total))))
       (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])))

(* ------------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* The deployed binary, built from this tree by run.sh, and where each
   cluster's sockets, stores and logs live (relative, so Unix-socket
   paths stay short). *)
let defcheck = "_build/default/bin/definability_cli.exe"
let run_dir = ".perfbench_run"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve-hot|solve-cold");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> die "unexpected argument %S" a)
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "serve-hot"; "solve-cold" ]) then
    die "--workload must be serve-hot or solve-cold";
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  if not (Sys.file_exists defcheck) then die "defcheck binary %s not found (build it first)" defcheck;
  { workload = !workload; seed; seconds = !seconds; trace = !trace = 1 }

let plan_of args =
  match args.workload with
  | "serve-hot" -> (serve_hot ~seed:args.seed, None)
  | _ ->
      let p, ex = solve_cold ~seed:args.seed ~seconds:args.seconds in
      (p, Some ex)

(* [setup_s] is the median of the [setups / 2 + 1] set-ups that saw the
   least host steal time, out of [setups]: like the window's quiet time,
   the choice reads only the host's counter. *)
let setups = 9

(* Start a cluster and run the warm-up pass; the time both take is one
   [setup_s] sample, taken with the host steal ticks it saw. *)
let setup plan ~traced =
  let t0 = Unix.gettimeofday () and steal0 = Loop.steal_ticks () in
  let c = Cluster.start ~exe:defcheck ~root:run_dir ~traced in
  let w = Loop.worker c.Cluster.router.Cluster.addr in
  plan.warmup w;
  Loop.drop w;
  (c, (Unix.gettimeofday () -. t0, Loop.steal_ticks () - steal0), w.Loop.log)

let window ~seconds plan ?poll c =
  plan.reset ();
  Loop.run ?poll ~conns:plan.conns ~seconds c.Cluster.router.Cluster.addr plan.step

let peak_rss c = List.fold_left (fun acc p -> Float.max acc (Cluster.peak_rss_mb p)) 0. (Cluster.procs c)

(* With one connection there is one op in flight, so the client, router
   and shard run in turn, never together.  With the host's CPUs to
   choose from, each hop can wake another, halted virtual CPU, and how
   long that takes follows the load of other tenants: on a 2-vCPU host,
   serve-hot runs alternating between the two set-ups read a p99 of
   325-422 us on both CPUs and 250-281 us on one.  So such a workload
   runs each cluster, and this process while it drives it, on one CPU;
   each hop is then a switch on that CPU.  The clusters of a run take
   the allowed CPUs in turn, because one CPU of a shared host can run
   slower than another for seconds at a time (the same loop, timed on
   each CPU of a 2-vCPU host in turn: 24.9 ms on one, 16.5 ms on the
   other, over the same ten seconds). *)

(* "Cpus_allowed_list:\t0-1,4" gives [0; 1; 4]. *)
let allowed_cpus () =
  let line =
    Option.bind (read_file "/proc/self/status") (fun st ->
        List.find_opt (String.starts_with ~prefix:"Cpus_allowed_list:") (String.split_on_char '\n' st))
  in
  match line with
  | None -> []
  | Some l ->
      List.concat_map
        (fun range ->
          match List.map int_of_string_opt (String.split_on_char '-' range) with
          | [ Some a ] -> [ a ]
          | [ Some a; Some b ] -> List.init (b - a + 1) (fun i -> a + i)
          | _ -> [])
        (String.split_on_char ',' (String.trim (String.sub l 18 (String.length l - 18))))

(* Move every thread of this process to [cpus]; processes and domains
   it starts later inherit them.  False when taskset is missing or fails. *)
let set_cpus cpus =
  let list = String.concat "," (List.map string_of_int cpus) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      match
        Unix.create_process "taskset"
          [| "taskset"; "-a"; "-p"; "-c"; list; string_of_int (Unix.getpid ()) |]
          null null null
      with
      | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
      | exception Unix.Unix_error _ -> false)

type pinning = {
  pin : int -> unit;  (* before setting up cluster [k] *)
  unpin : unit -> unit;
  tag : string;  (* for the host tag *)
}

let pinning plan =
  let none tag = { pin = ignore; unpin = ignore; tag } in
  match allowed_cpus () with
  | _ when plan.conns > 1 -> none "unpinned"
  | [] -> none "unpinned: no Cpus_allowed_list in /proc/self/status"
  | cpus when not (set_cpus cpus) -> none "unpinned: taskset failed"
  | cpus ->
      let n = List.length cpus in
      {
        pin = (fun k -> ignore (set_cpus [ List.nth cpus (k mod n) ]));
        unpin = (fun () -> ignore (set_cpus cpus));
        tag = "one CPU per cluster, from " ^ String.concat "," (List.map string_of_int cpus);
      }

let host_tag args plan ~affinity =
  Wire.json_obj
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Wire.json_string Sys.ocaml_version);
      ("revision", Wire.json_string (revision ()));
      ("seed", string_of_int args.seed);
      ("connections", string_of_int plan.conns);
      ("cpu_affinity", Wire.json_string affinity);
      ( "defcheck_flags",
        Wire.json_string "serve --shard I/2 --store DIR; route SHARD0 SHARD1 (all other flags default)" );
      ("fsync", Wire.json_string "every:64");
      ("pool_size", Wire.json_string "default (PAR_DOMAINS unset)");
      ("fuel", Wire.json_string plan.fuel_tag);
      ("store_fs", Wire.json_string (filesystem run_dir));
    ]

let finish ~args ~plan ~affinity ~judged ~exhausted ~report ~metrics =
  List.iter (fun (name, v, _) -> if not (Float.is_finite v) then die "metric %s is not a number" name) metrics;
  let wrong = judged.n_wrong > 0 || exhausted in
  Printf.printf "{\"report\":{\"workload\":%s,\"seconds\":%s,\"trace\":%b,\"schedule_crc\":%s,\"host\":%s,%s,\"correctness_failures\":%d,\"first_failures\":[%s],\"errors\":{%s}}}\n"
    (Wire.json_string args.workload) (num args.seconds) args.trace (Wire.json_string plan.crc)
    (host_tag args plan ~affinity) report judged.n_wrong
    (String.concat "," (List.map Wire.json_string
       ((if exhausted then [ "solve-cold schedule exhausted: raise cold_capacity" ] else []) @ judged.wrong)))
    (String.concat "," (List.map (fun (k, v) -> Wire.json_string k ^ ":" ^ string_of_int v) judged.classes));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" (not wrong)
    judged.attempted (judged.attempted - judged.ok)
    (String.concat "," (List.map metric_json metrics));
  exit (if wrong then 1 else 0)

(* Quiet time.  This benchmark runs on shared virtual machines, where
   the hypervisor takes CPUs away from the cluster while other tenants
   run: steal time, which [Loop.run] samples from /proc/stat about every
   50 ms.  The window's figures come from its quiet runs: the sampling
   intervals in which the host's steal counter did not move, adjacent
   ones merged.  Throughput counts the decides completed in quiet runs
   per quiet second; latencies are exact percentiles over the decides
   that started and ended inside one quiet run.  When those are fewer
   than the 1000 a p99 needs, intervals that gained one tick are
   admitted too, then two, and so on.  The choice reads only the host's
   counter, never the measured latencies, so a change that slows the
   program still shows. *)
type quiet = { rps : float; p50 : float; p99 : (float, string) result; chosen : float array; json : string }

let quiet_of (w : Loop.window) j =
  let samples = Array.of_list (List.rev w.Loop.steal) in
  let intervals =
    Array.init (Array.length samples - 1) (fun i ->
        let a, s0 = samples.(i) and b, s1 = samples.(i + 1) in
        (a, b, s1 - s0))
  in
  (* runs of intervals whose steal is at most [limit], in time order *)
  let runs limit =
    Array.of_list
      (List.rev
         (Array.fold_left
            (fun acc (a, b, d) ->
              if d > limit then acc
              else
                match acc with
                | (a0, b0) :: rest when b0 = a -> (a0, b) :: rest
                | _ -> (a, b) :: acc)
            [] intervals))
  in
  (* the index of the run holding time [t], or -1 *)
  let run_of rs t =
    let lo = ref 0 and hi = ref (Array.length rs) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst rs.(mid) <= t then lo := mid + 1 else hi := mid
    done;
    if !lo > 0 && t <= snd rs.(!lo - 1) then !lo - 1 else -1
  in
  let select limit =
    let rs = runs limit in
    let done_in = List.filter (fun (r : Loop.record) -> run_of rs r.Loop.at >= 0) j.good in
    let inside =
      List.filter
        (fun (r : Loop.record) -> run_of rs (r.Loop.at -. (r.Loop.us /. 1e6)) = run_of rs r.Loop.at)
        done_in
    in
    (rs, done_in, sorted (Array.of_list (List.map (fun (r : Loop.record) -> r.Loop.us) inside)))
  in
  let most = Array.fold_left (fun acc (_, _, d) -> max acc d) 0 intervals in
  let rec widen limit =
    let ((_, _, lat) as sel) = select limit in
    if Array.length lat >= 1000 || limit >= most then (limit, sel) else widen (limit + 1)
  in
  let limit, (rs, done_in, lat) = widen 0 in
  let quiet_s = Array.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. rs in
  let p50 = if lat = [||] then nan else pct lat 50. in
  {
    rps = float_of_int (List.length done_in) /. quiet_s;
    p50;
    p99 = p99 lat;
    chosen = lat;
    json =
      Printf.sprintf
        "{\"steal_ticks\":%d,\"steal_limit\":%d,\"quiet_s\":%s,\"completed\":%d,\"inside\":%d}"
        (let _, first = samples.(0) and _, last = samples.(Array.length samples - 1) in last - first)
        limit (num quiet_s) (List.length done_in) (Array.length lat);
  }

(* Judge the window and the warm-up passes; a failed warm-up op is a
   set-up error, a wrong reply anywhere a correctness failure. *)
let judge_run plan (w : Loop.window) warm =
  let judged = judge plan w.Loop.records in
  let warm = judge plan warm in
  if warm.ok + warm.n_wrong < warm.attempted then
    die "warm-up op failed (%d of %d)" (warm.attempted - warm.ok - warm.n_wrong) warm.attempted;
  { judged with n_wrong = judged.n_wrong + warm.n_wrong; wrong = judged.wrong @ warm.wrong }

let window_report plan (w : Loop.window) j sl =
  Printf.sprintf
    "\"window_ops\":%d,\"window_ok\":%d,\"elapsed_s\":%s,\"latency\":{%s},\"languages\":%s,\"quiet\":%s"
    j.attempted j.ok (num w.Loop.elapsed_s) (latency_report j) (lang_report plan j) sl.json

(* The judgement of several windows as one. *)
let merge_judged js =
  let sum f = List.fold_left (fun acc j -> acc + f j) 0 js in
  {
    attempted = sum (fun j -> j.attempted);
    ok = sum (fun j -> j.ok);
    n_wrong = sum (fun j -> j.n_wrong);
    wrong = List.concat_map (fun j -> j.wrong) js;
    good = List.concat_map (fun j -> j.good) js;
    classes =
      List.map
        (fun cls ->
          (cls, List.fold_left (fun acc j -> acc + Option.value ~default:0 (List.assoc_opt cls j.classes)) 0 js))
        (List.sort_uniq compare (List.concat_map (fun j -> List.map fst j.classes) js));
  }

(* One replicate of the end-to-end run: a fresh cluster, its set-up (one
   [setup_s] sample) and its share of the window. *)
type replicate = {
  setup_sample : float * int;
  warm : Loop.record list;
  w : Loop.window;
  cpu_s : float;
  rss_mb : (float, float) result;  (* [Error]: read at the window's end *)
}

(* [peak_rss_mb] is read after a fixed amount of work, the first
   connection's [rss_ops]th op, not at the end of the cluster's window:
   a solve-cold cluster's memory still grows by some 30 KB a decide
   when its window ends, so a figure read then followed how fast the
   host ran (96 MiB at 578 decides/s, 121 MiB at 833). *)
let rss_ops = 600

(* The end-to-end run splits its window over [setups] clusters, each set
   up afresh, and reports the median over them of each cluster's figure.
   Clusters started a few seconds apart on the same host differ, and
   each keeps its difference for its life (serve-hot, one run on one
   CPU of a 2-vCPU host: per-cluster p99s from 230 to 282 us), so with one
   cluster per run the run's figures followed that one cluster.  The
   schedule runs on from one cluster to the next, so no solve-cold
   instance is sent twice. *)
let end_to_end args plan exhausted =
  let cpus = pinning plan in
  plan.reset ();
  let seconds = args.seconds /. float_of_int setups in
  let reps =
    List.init setups (fun k ->
        cpus.pin k;
        let c, setup_sample, warm = setup plan ~traced:false in
        let cpu0 = Cluster.cpu_s c in
        let rss_mb = ref None in
        let w =
          Loop.run
            ~mark:(rss_ops, fun () -> rss_mb := Some (peak_rss c))
            ~conns:plan.conns ~seconds c.Cluster.router.Cluster.addr plan.step
        in
        let cpu_s = Cluster.cpu_s c -. cpu0 in
        let rss_mb = match !rss_mb with Some r -> Ok r | None -> Error (peak_rss c) in
        Cluster.stop c;
        { setup_sample; warm; w; cpu_s; rss_mb })
  in
  cpus.unpin ();
  (* Judged only now: the references run on a domain pool in this
     process, which would take CPU from the next cluster's window. *)
  let judged = List.map (fun r -> judge_run plan r.w r.warm) reps in
  let quiet = List.map2 (fun r j -> quiet_of r.w j) reps judged in
  let all = merge_judged judged in
  let p99s =
    List.map
      (fun q ->
        match q.p99 with
        | Ok v -> v
        | Error why -> prerr_endline ("perfbench: decide p99 not reportable: " ^ why); exit 1)
      quiet
  in
  let cpu_per_op = List.map2 (fun r j -> r.cpu_s *. 1e6 /. float_of_int j.ok) reps judged in
  let med l = median (Array.of_list l) in
  let rss r = match r.rss_mb with Ok v | Error v -> v in
  let quietest =
    List.filteri (fun i _ -> i <= setups / 2)
      (List.stable_sort (fun (_, a) (_, b) -> compare a b) (List.map (fun r -> r.setup_sample) reps))
  in
  let nums l = "[" ^ String.concat "," (List.map num l) ^ "]" in
  let report =
    Printf.sprintf
      "\"setup_s_samples\":%s,\"setup_steal_ticks\":[%s],\"window_ops\":%d,\"window_ok\":%d,\"latency\":{%s},\"languages\":%s,\"p99_pooled_us\":%s,\"clusters\":{\"seconds_each\":%s,\"throughput_rps\":%s,\"decide_p50_us\":%s,\"decide_p99_us\":%s,\"peak_rss_mb\":%s,\"rss_read_at_end\":%d,\"cpu_us_per_op\":%s,\"quiet\":[%s]}"
      (nums (List.map (fun r -> fst r.setup_sample) reps))
      (String.concat "," (List.map (fun r -> string_of_int (snd r.setup_sample)) reps))
      all.attempted all.ok (latency_report all) (lang_report plan all)
      (match p99 (sorted (Array.concat (List.map (fun q -> q.chosen) quiet))) with
       | Ok v -> num v
       | Error _ -> "null")
      (num seconds)
      (nums (List.map (fun q -> q.rps) quiet))
      (nums (List.map (fun q -> q.p50) quiet))
      (nums p99s)
      (nums (List.map (fun r -> rss r) reps))
      (List.length (List.filter (fun r -> Result.is_error r.rss_mb) reps))
      (nums cpu_per_op)
      (String.concat "," (List.map (fun q -> q.json) quiet))
  in
  finish ~args ~plan ~affinity:cpus.tag ~judged:all ~exhausted:(exhausted ()) ~report
    ~metrics:
      [
        ("setup_s", med (List.map fst quietest), "s");
        ("throughput_rps", med (List.map (fun q -> q.rps) quiet), "1/s");
        ("success_ratio", float_of_int all.ok /. float_of_int all.attempted, "ratio");
        ("decide_p50_us", med (List.map (fun q -> q.p50) quiet), "us");
        ("decide_p99_us", med p99s, "us");
        ("peak_rss_mb", med (List.map rss reps), "MiB");
        ("cluster_cpu_us_per_op", med cpu_per_op, "us");
      ]

(* The traced run: an untraced window, then a traced one on a fresh
   cluster whose shards write runtime events, each half the run's
   seconds; then the probes and in-process layer timings. *)
let traced args plan exhausted =
  let cpus = pinning plan in
  cpus.pin 0;
  let seconds = args.seconds /. 2. in
  let c, _, warm_a = setup plan ~traced:false in
  let wa = window ~seconds plan c in
  Cluster.stop c;
  let c, _, warm_b = setup plan ~traced:true in
  let router = c.Cluster.router.Cluster.addr in
  let gc = Layers.gc_open c in
  Layers.gc_poll gc;
  let before = Layers.scrape router in
  gc.Layers.counting <- true;
  let wb = window ~seconds ~poll:(fun () -> Layers.gc_poll gc) plan c in
  gc.Layers.counting <- false;
  let after = Layers.scrape router in
  Layers.gc_close gc;
  let ja = judge_run plan wa warm_a and jb = judge_run plan wb warm_b in
  let sa = quiet_of wa ja and sb = quiet_of wb jb in
  (* Probe with the 256 highest-numbered problems the window decided
     (on solve-cold, the most recent: still in the memory tier). *)
  let ids =
    List.sort_uniq compare
      (List.map (fun (r : Loop.record) -> r.Loop.check) jb.good)
  in
  let ids = List.filteri (fun i _ -> i >= List.length ids - 256) ids in
  let problems = Array.of_list (List.map (fun i -> plan.problems.(i)) ids) in
  let probes = Layers.probes_of problems in
  let service_pool =
    max 1 (Layers.stat after [ "shards"; c.Cluster.shards.(0).Cluster.name; "pool_size" ])
  in
  let cluster = Layers.cluster_probes c probes in
  let delta_steps, delta_wrong = Layers.delta_probe c probes in
  let after_deltas = Layers.scrape router in
  cpus.unpin ();
  let own = Layers.in_process ~problems ~probes ~service_pool in
  Cluster.stop c;
  let scraped = Layers.scraped ~before ~after ~deltas:(after, after_deltas) ~errors:jb.classes in
  let hit_ratio = List.assoc "cache.verdict_hit_ratio" (List.map (fun (n, v, _) -> (n, v)) scraped) in
  let jb =
    { jb with n_wrong = jb.n_wrong + List.length delta_wrong; wrong = jb.wrong @ delta_wrong }
  in
  let jb =
    if plan.forbid_hit && hit_ratio > 0. then
      { jb with n_wrong = jb.n_wrong + 1; wrong = jb.wrong @ [ "cache.verdict_hit_ratio > 0 on never-seen instances" ] }
    else jb
  in
  let kreq = float_of_int jb.attempted /. 1000. in
  let pauses = sorted (Array.of_list gc.Layers.pauses) in
  let pause_p99 =
    match p99 pauses with
    | Ok v -> (v, "null")
    | Error why -> ((if pauses = [||] then 0. else pauses.(Array.length pauses - 1)), Wire.json_string ("max reported: " ^ why))
  in
  let gcm =
    [
      ("gc.minor_per_kreq", float_of_int gc.Layers.minors /. kreq, "1/kreq");
      ("gc.major_slices_per_kreq", float_of_int gc.Layers.slices /. kreq, "1/kreq");
      ("gc.pause_p99_us", fst pause_p99, "us");
      ("gc.client_minor_per_kreq", float_of_int wb.Loop.client_minor /. kreq, "1/kreq");
      ("trace.overhead_pct", (sb.p50 -. sa.p50) /. sa.p50 *. 100., "%");
    ]
  in
  let judged = merge_judged [ ja; jb ] in
  let report =
    Printf.sprintf
      "\"untraced\":{%s},\"traced\":{%s},\"probes\":%d,\"delta_probe_steps\":%d,\"gc\":{\"pauses\":%d,\"lost_events\":%d,\"pause_p99_note\":%s}"
      (window_report plan wa ja sa) (window_report plan wb jb sb) (List.length probes) delta_steps
      (Array.length pauses) gc.Layers.lost (snd pause_p99)
  in
  finish ~args ~plan ~affinity:cpus.tag ~judged ~exhausted:(exhausted ()) ~report ~metrics:(scraped @ own @ cluster @ gcm)

let () =
  let args = parse_args () in
  let t0 = Unix.gettimeofday () in
  let plan, exhausted = plan_of args in
  Printf.eprintf "perfbench: inputs generated in %.2fs\n%!" (Unix.gettimeofday () -. t0);
  let exhausted () = match exhausted with Some e -> Atomic.get e | None -> false in
  (if args.trace then traced else end_to_end) args plan exhausted
