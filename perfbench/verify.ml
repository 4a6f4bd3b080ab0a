(* The correctness gate.  After the window, every reply is parsed and
   classified; every successful verdict block is compared byte for byte
   with an in-process reference: [Engine.Registry.decide] with the same
   lang, k and fuel (for the traced run's delta probe,
   [Engine.Delta.decide_delta] from the reference outcome of the
   previous step), rendered by [Wire.verdict_to_string].  An [unknown]
   equal to its reference is a success.  Failures are counted by class against the ops attempted; a
   wrong, unparseable or unsealed reply is a correctness failure. *)

module Wire = Service.Wire
module Json = Service.Json
module Outcome = Engine.Outcome

(* ------------------------------------------------------------------ *)
(* Raw JSON slicing: the byte range of a member's value, so a verdict
   block is compared as the bytes the service sent. *)

let skip_string s j =
  let n = String.length s in
  let rec go j = if j >= n then n else match s.[j] with '\\' -> go (j + 2) | '"' -> j + 1 | _ -> go (j + 1) in
  go j

let skip_value s i =
  let n = String.length s in
  let rec nest j depth =
    if j >= n then n
    else
      match s.[j] with
      | '"' -> nest (skip_string s (j + 1)) depth
      | '{' | '[' -> nest (j + 1) (depth + 1)
      | '}' | ']' -> if depth = 1 then j + 1 else nest (j + 1) (depth - 1)
      | _ -> nest (j + 1) depth
  in
  match s.[i] with
  | '"' -> skip_string s (i + 1)
  | '{' | '[' -> nest i 0
  | _ ->
      let j = ref i in
      while !j < n && not (String.contains ",}]" s.[!j]) do incr j done;
      !j

(* The raw value of member [key] of the object starting at [i]. *)
let member_raw s i key =
  let rec go j =
    if j >= String.length s || s.[j] <> '"' then None
    else
      let k_end = skip_string s (j + 1) in
      let name = String.sub s (j + 1) (k_end - j - 2) in
      let v = k_end + 1 in
      let v_end = skip_value s v in
      if name = key then Some (String.sub s v (v_end - v))
      else if v_end < String.length s && s.[v_end] = ',' then go (v_end + 1)
      else None
  in
  if i < String.length s && s.[i] = '{' then go (i + 1) else None

(* ------------------------------------------------------------------ *)
(* References. *)

let params p = { Engine.Registry.k = Option.value p.Gen.k ~default:1 }
let budget p = Engine.Budget.create ?fuel:p.Gen.fuel ()

let reference_outcome p inst =
  match Engine.Registry.decide ~budget:(budget p) ~params:(params p) ~lang:p.Gen.lang inst with
  | Ok o -> o
  | Error msg -> failwith ("reference decide: " ^ msg)

let reference p =
  let g, s = Gen.parse p in
  Wire.verdict_to_string g ~lang:p.Gen.lang (reference_outcome p (Engine.Instance.create_exn g s))

(* ------------------------------------------------------------------ *)
(* Classification. *)

type verdict =
  | Ok_op
  | Failed of string  (* an error class *)
  | Wrong of string  (* a correctness failure *)

let error_classes =
  [ "stale_digest"; "overloaded"; "queue_full"; "shard_unavailable"; "transport"; "other" ]

let class_of_error msg =
  if String.starts_with ~prefix:"unknown instance digest" msg then "stale_digest"
  else if String.starts_with ~prefix:"shard_unavailable" msg then "shard_unavailable"
  else "other"

let str j key = Option.bind (Json.member key j) Json.to_str

(* A reply object that is not [ok]: its error class. *)
let failure_class j =
  match str j "status" with
  | Some "overloaded" ->
      if str j "detail" = Some "queue_full" then "queue_full" else "overloaded"
  | Some "unavailable" -> "shard_unavailable"
  | _ -> ( match str j "error" with Some msg -> class_of_error msg | None -> "other")

(* Judge one reply against the reference verdict block [expect] and,
   for a delta, the chained digest it must carry. *)
let judge ~forbid_hit ?digest ~expect reply =
  match reply with
  | Error _ -> Failed "transport"
  | Ok line -> (
      if Wire.crc_status line <> `Sealed_ok then Wrong "unsealed reply"
      else
        match Json.parse line with
        | Error msg -> Wrong ("unparseable reply: " ^ msg)
        | Ok j when str j "status" <> Some "ok" -> Failed (failure_class j)
        | Ok _ -> (
            match member_raw line 0 "result" with
            | None -> Wrong "ok reply without result"
            | Some result when result <> expect ->
                Wrong (Printf.sprintf "verdict mismatch: got %s, reference %s" result expect)
            | Some _ ->
                if
                  match digest with
                  | Some d -> member_raw line 0 "digest" <> Some (Wire.json_string d)
                  | None -> false
                then Wrong "digest differs from the chained digest"
                else if forbid_hit && member_raw line 0 "cache" = Some "\"hit\"" then
                  Wrong "cache hit on an instance the cluster has never seen"
                else Ok_op))
