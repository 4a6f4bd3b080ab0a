(* The system under test: two [defcheck serve --shard i/2 --store DIR]
   processes behind one [defcheck route], all with default flags, each
   cluster in a fresh directory (sockets, stores, logs).  Every spawned
   pid and cluster directory is registered for the exit hook, so no
   process or directory outlives the benchmark, whether it returns,
   fails or is signalled. *)

module Wire = Service.Wire
module Client = Service.Client

type proc = { pid : int; name : string; addr : Wire.address }

type t = {
  dir : string;
  shards : proc array;
  router : proc;
  events_dir : string option;  (* runtime-events rings of the shards *)
}

let live : int list ref = ref []
let live_dirs : string list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let () =
  at_exit (fun () ->
      kill_all ();
      List.iter rm_rf !live_dirs);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* The service is run exactly as deployed, so the environment it
   inherits loses PAR_DOMAINS (the pool size stays the default) and
   gains only the runtime-events switches of a traced run. *)
let child_env ~events_dir =
  let keep =
    List.filter
      (fun kv ->
        not
          (List.exists
             (fun p -> String.starts_with ~prefix:p kv)
             [ "PAR_DOMAINS="; "OCAML_RUNTIME_EVENTS" ]))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list
    (keep
    @
    match events_dir with
    | None -> []
    | Some d ->
        [ "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ d ])

let spawn ~exe ~env ~log args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err)
      (fun () -> Unix.create_process_env exe (Array.of_list (exe :: args)) env null null err)
  in
  live := pid :: !live;
  pid

let sock dir name = Wire.Unix_sock (Filename.concat dir (name ^ ".sock"))
let addr_arg a = Wire.address_to_string a

let serial = ref 0

(* Spawn the three processes in a fresh directory under [root] and
   return once each answers a ping. *)
let start ~exe ~root ~traced =
  incr serial;
  let dir = Filename.concat root (Printf.sprintf "c%d-%d" (Unix.getpid ()) !serial) in
  rm_rf dir;
  mkdir_p dir;
  live_dirs := dir :: !live_dirs;
  let events_dir = if traced then Some dir else None in
  let shard i =
    let name = Printf.sprintf "shard%d" i in
    let addr = sock dir name in
    let pid =
      spawn ~exe ~env:(child_env ~events_dir) ~log:(Filename.concat dir (name ^ ".log"))
        [ "serve"; "-a"; addr_arg addr; "--shard"; Printf.sprintf "%d/2" i;
          "--store"; Filename.concat dir (Printf.sprintf "store%d" i) ]
    in
    { pid; name; addr }
  in
  let shards = [| shard 0; shard 1 |] in
  let raddr = sock dir "router" in
  let router =
    {
      pid =
        spawn ~exe ~env:(child_env ~events_dir:None)
          ~log:(Filename.concat dir "router.log")
          ([ "route"; "-a"; addr_arg raddr ]
          @ Array.to_list (Array.map (fun s -> addr_arg s.addr) shards));
      name = "router";
      addr = raddr;
    }
  in
  let t = { dir; shards; router; events_dir } in
  (* Dial every millisecond until the socket accepts: the client's own
     exponential retry backoff would round the start-up time up to its
     next retry, which is what set-up time measures. *)
  let rec dial p deadline =
    match Client.connect p.addr with
    | c -> c
    | exception (Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) as e) ->
        if Unix.gettimeofday () > deadline then raise e;
        Unix.sleepf 0.001;
        dial p deadline
  in
  let ping p =
    let c = dial p (Unix.gettimeofday () +. 10.) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.request_raw c (Wire.request_to_string Wire.Ping) with
    | Ok line when Wire.crc_status line = `Sealed_ok -> ()
    | Ok line -> failwith (Printf.sprintf "%s: bad ping reply %S" p.name line)
    | Error msg -> failwith (Printf.sprintf "%s: ping failed: %s" p.name msg)
  in
  Array.iter ping shards;
  ping router;
  t

(* Peak resident set (VmHWM) of one process, in MiB. *)
let peak_rss_mb p =
  let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
  in
  go ()

let procs t = t.router :: Array.to_list t.shards

(* CPU time (user + system) of the cluster's processes so far, in
   seconds: /proc/PID/stat fields 14 and 15, in USER_HZ = 100 ticks. *)
let cpu_s t =
  List.fold_left
    (fun acc p ->
      let ic = open_in (Printf.sprintf "/proc/%d/stat" p.pid) in
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      (* the command name may hold spaces; fields resume after its ')' *)
      let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      acc +. (float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.))
    0. (procs t)

(* Shutdown travels router -> shards (each drains); a process that does
   not exit within the grace period is killed. *)
let stop t =
  (try
     let c = Client.connect ~deadline_s:5. t.router.addr in
     ignore (Client.request_raw c (Wire.request_to_string Wire.Shutdown));
     Client.close c
   with _ -> ());
  let deadline = Unix.gettimeofday () +. 5. in
  List.iter
    (fun p ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] p.pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.01;
            wait ()
        | 0, _ ->
            (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
            reap p.pid
        | _ -> live := List.filter (( <> ) p.pid) !live
        | exception Unix.Unix_error _ -> live := List.filter (( <> ) p.pid) !live
      in
      wait ())
    (procs t);
  rm_rf t.dir;
  live_dirs := List.filter (( <> ) t.dir) !live_dirs
