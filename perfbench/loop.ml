(* The closed-loop load generator: one domain per connection, each
   sending its next pre-rendered line only after the previous reply
   arrived.  Each domain appends one record per op and does nothing else
   inside the window; replies are checked after it closes. *)

module Wire = Service.Wire
module Client = Service.Client

type record = {
  check : int;  (* index of the problem the line decides *)
  us : float;  (* client-side latency *)
  at : float;  (* completion time, seconds since the epoch *)
  reply : (string, string) result;  (* [Error]: transport failure *)
}

type worker = {
  addr : Wire.address;
  mutable conn : Client.t option;
  mutable log : record list;  (* newest first *)
}

let worker addr = { addr; conn = None; log = [] }

let drop w =
  Option.iter Client.close w.conn;
  w.conn <- None

(* Send one decide line and record it.  A transport failure costs the
   connection; the next op redials. *)
let send w ~check line =
  let t0 = Unix.gettimeofday () in
  let reply =
    try
      let c =
        match w.conn with
        | Some c -> c
        | None ->
            let c = Client.connect ~retries:3 ~backoff_s:0.01 w.addr in
            w.conn <- Some c;
            c
      in
      Client.request_raw c line
    with
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | End_of_file -> Error "connection closed"
    | Sys_error msg -> Error msg
  in
  let t1 = Unix.gettimeofday () in
  if Result.is_error reply then drop w;
  w.log <- { check; us = (t1 -. t0) *. 1e6; at = t1; reply } :: w.log

type window = {
  records : record list;  (* all connections, any order *)
  t0 : float;
  steal : (float * int) list;  (* (time, host steal ticks so far), newest first *)
  elapsed_s : float;
  client_minor : int;  (* minor collections in this process *)
}

(* Cumulative steal time of the machine, in USER_HZ ticks: the time the
   hypervisor ran something else while this machine's CPUs wanted to
   run (the 8th counter of the "cpu" line of /proc/stat). *)
let steal_ticks () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string steal
  | _ -> 0

(* Run [step] on [conns] connections for [seconds].  The first
   connection runs in this domain, the others in a domain each.  Between
   two of its ops, this domain samples the host's steal time every 50 ms
   and runs [poll] every 5 ms (the traced run reads the shards'
   runtime-events rings there): a domain that woke on a timer instead
   would take the CPU from the cluster in the middle of ops, and a
   pinned serve-hot run has only one CPU.  [mark = (n, f)] runs [f] there
   once, after the first connection's [n]th op. *)
let run ?(poll = fun () -> ()) ?(mark = (0, ignore)) ~conns ~seconds addr (step : worker -> bool) =
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let steal = ref [ (t0, steal_ticks ()) ] in
  let next_poll = ref t0 and next_steal = ref (t0 +. 0.05) and ops = ref 0 in
  let between now =
    incr ops;
    if !ops = fst mark then snd mark ();
    if now >= !next_poll then begin
      poll ();
      next_poll := now +. 0.005
    end;
    if now >= !next_steal then begin
      steal := (Unix.gettimeofday (), steal_ticks ()) :: !steal;
      next_steal := now +. 0.05
    end
  in
  let drive between () =
    let w = worker addr in
    let last = ref t0 in
    Fun.protect
      ~finally:(fun () -> drop w)
      (fun () ->
        while Unix.gettimeofday () < deadline && step w do
          last := Unix.gettimeofday ();
          between !last
        done;
        (w.log, !last))
  in
  let others = Array.init (conns - 1) (fun _ -> Domain.spawn (drive ignore)) in
  let first = drive between () in
  let results = Array.append [| first |] (Array.map Domain.join others) in
  poll ();
  steal := (Unix.gettimeofday (), steal_ticks ()) :: !steal;
  let minor = (Gc.quick_stat ()).Gc.minor_collections in
  {
    records = Array.fold_left (fun acc (l, _) -> List.rev_append l acc) [] results;
    t0;
    steal = !steal;
    elapsed_s = Array.fold_left (fun acc (_, last) -> Float.max acc (last -. t0)) 0. results;
    (* Minor collections stop every domain, so the count is global. *)
    client_minor = minor - minor0;
  }
