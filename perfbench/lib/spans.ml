(* In-memory span recorder for the traced runs.

   Spans are recorded from the benchmark's own files, around calls into
   the program's layers; nothing inside the program is instrumented. A
   span has a name, start and end (monotonic ns), the id of the span
   that caused it (or [-1] for a root) and a request id shared by every
   span of one request (a program, a design point, a serve request). *)

type span = {
  id : int;
  parent : int;
  name : string;
  req : string;
  start_ns : int;
  stop_ns : int;
}

type t = { mutex : Mutex.t; next : int Atomic.t; mutable spans : span list }

let create () = { mutex = Mutex.create (); next = Atomic.make 0; spans = [] }
let now_ns = Telemetry.now_ns
let fresh_id t = Atomic.fetch_and_add t.next 1

let add t s =
  Mutex.lock t.mutex;
  t.spans <- s :: t.spans;
  Mutex.unlock t.mutex

let record t ~parent ~req name ~start_ns ~stop_ns =
  let id = fresh_id t in
  add t { id; parent; name; req; start_ns; stop_ns };
  id

(* [span t ~parent ~req name f] runs [f id] under a new span whose id
   children pass as their [parent]. The span is recorded even when [f]
   raises. *)
let span t ~parent ~req name f =
  let id = fresh_id t in
  let start_ns = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      add t { id; parent; name; req; start_ns; stop_ns = now_ns () })
    (fun () -> f id)

let spans t =
  Mutex.lock t.mutex;
  let l = List.rev t.spans in
  Mutex.unlock t.mutex;
  l

let dur_s s = float_of_int (s.stop_ns - s.start_ns) /. 1e9

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its interval
   that its children cover. Returned as (span, self seconds). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      let cov = covered ~lo:s.start_ns ~hi:s.stop_ns kids in
      (s, float_of_int (s.stop_ns - s.start_ns - cov) /. 1e9))
    spans

(* Summed self seconds per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let self_of by_name name =
  Option.value (List.assoc_opt name by_name) ~default:0.0

(* Domain seconds each span named [region] leaves idle: [jobs] times
   its duration minus the summed durations of its direct children, the
   jobs it ran on [jobs] domains. One value per region span, in order. *)
let pool_waits ~jobs spans ~region =
  let child_dur = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_dur s.parent
          (dur_s s +. Option.value (Hashtbl.find_opt child_dur s.parent) ~default:0.0))
    spans;
  List.filter_map
    (fun s ->
      if s.name = region then
        Some
          ((float_of_int jobs *. dur_s s)
          -. Option.value (Hashtbl.find_opt child_dur s.id) ~default:0.0)
      else None)
    spans

(* Spans named [name]: their summed duration in seconds. *)
let total_dur spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur_s s else acc)
    0.0 spans

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%S,\"start_ns\":%d,\"end_ns\":%d}"
    s.id s.parent s.name s.req s.start_ns s.stop_ns
