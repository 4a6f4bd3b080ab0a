(* Recency is an intrusive circular doubly-linked list through the
   nodes: [head] is the most recently used node, [head.older] the next
   one, and so on round to [head.newer], the least recently used — the
   eviction victim, reached in O(1).  A lone node links to itself. *)
type 'a node = {
  key : string;
  value : 'a;
  mutable newer : 'a node;
  mutable older : 'a node;
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable evicted : int;
  mutable hit : int;
  mutable miss : int;
  m : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Service.Lru.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    evicted = 0;
    hit = 0;
    miss = 0;
    m = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let capacity t = t.capacity
let length t = locked t (fun () -> Hashtbl.length t.table)
let evictions t = locked t (fun () -> t.evicted)
let hits t = locked t (fun () -> t.hit)
let misses t = locked t (fun () -> t.miss)

let unlink t n =
  if n.older == n then t.head <- None
  else begin
    n.newer.older <- n.older;
    n.older.newer <- n.newer;
    match t.head with Some h when h == n -> t.head <- Some n.older | _ -> ()
  end

let push_front t n =
  (match t.head with
  | None ->
      n.newer <- n;
      n.older <- n
  | Some h ->
      let tail = h.newer in
      n.older <- h;
      n.newer <- tail;
      tail.older <- n;
      h.newer <- n);
  t.head <- Some n

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | None ->
          t.miss <- t.miss + 1;
          None
      | Some n ->
          unlink t n;
          push_front t n;
          t.hit <- t.hit + 1;
          Some n.value)

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key

let put t k v =
  locked t (fun () ->
      (* Replace rather than mutate: [value] is immutable so a reader
         that grabbed the old value keeps a consistent snapshot. *)
      (match Hashtbl.find_opt t.table k with
      | Some old -> drop t old
      | None -> (
          if Hashtbl.length t.table >= t.capacity then
            match t.head with
            | Some h ->
                drop t h.newer;
                t.evicted <- t.evicted + 1
            | None -> ()));
      let rec n = { key = k; value = v; newer = n; older = n } in
      push_front t n;
      Hashtbl.replace t.table k n)

let remove t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with Some n -> drop t n | None -> ())

let hot t n =
  locked t (fun () ->
      match t.head with
      | None -> []
      | Some h ->
          let count = min n (Hashtbl.length t.table) in
          let rec walk node i acc =
            if i >= count then List.rev acc
            else walk node.older (i + 1) ((node.key, node.value) :: acc)
          in
          walk h 0 [])

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None)
