(* Shared settings and helpers for the three workloads. *)

let cfg = Config.Machine.baseline

(* Load comes from one process with no more domains than the machine's
   two cores. Two domains also make the timings steadier than one: the
   work spreads over both cores, so one core slowed by the host does not
   slow the whole run. *)
let jobs = 2
let ref_length = 300_000
let syn_length = 40_000

type args = { workload : string; seed : int; seconds : float; trace : bool }

let now () = float_of_int (Telemetry.now_ns ()) /. 1e9
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Seeded inputs: the seed shifts the workload streams' data seed and
   the synthetic master seed; the program only sees the results. *)
let seed_offset seed = (abs seed * 7919) mod 1_000_003
let master_seed seed = 20040609 + (abs seed * 7717)

(* Accuracy is reported on the paper's fixed inputs, whatever the run's
   seed: stream offset 0 and the Fig 6 synthetic seed. The error then
   reads the same on every run; the seeded inputs vary only the timed
   work. *)
let fig6_seed = 20040609

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Run [f] [n] times and return the median wall time of one call and
   the last result. *)
let median_time n f =
  let last = ref None in
  let times =
    List.init n (fun _ ->
        let v, dt = time f in
        last := Some v;
        dt)
  in
  (Option.get !last, Perfbench.Quant.median times)

(* Repeat [pass] until [seconds] have elapsed (at least [min_passes]
   times); returns (result, wall seconds) per pass and the total wall. *)
let timed_passes ?(min_passes = 2) ~seconds pass =
  let t0 = now () in
  let rec go i acc =
    let elapsed = now () -. t0 in
    if i >= min_passes && elapsed >= seconds then List.rev acc
    else
      let r, dt = time (fun () -> pass i) in
      go (i + 1) ((r, dt) :: acc)
  in
  let passes = go 0 [] in
  log "perfbench: pass walls (s): %s"
    (String.concat " " (List.map (fun (_, dt) -> Printf.sprintf "%.3f" dt) passes));
  (passes, now () -. t0)

let median = Perfbench.Quant.median
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let rel_err ~reference ~predicted =
  Stats.Summary.percent
    (Stats.Summary.absolute_error ~reference ~predicted)

let encode = Uarch.Metrics.encode

(* Invariants every pipeline result satisfies. *)
let sane (m : Uarch.Metrics.t) =
  m.committed > 0 && m.cycles > 0
  && Uarch.Metrics.stall_total m.stalls = m.dispatch_stall_cycles

(* Aggregate model metrics (simulated time, exact). *)
let set_model out src (ms : Uarch.Metrics.t list) =
  let committed = float_of_int (isum (fun (m : Uarch.Metrics.t) -> m.committed) ms) in
  let per_inst f = if committed > 0.0 then float_of_int (isum f ms) /. committed else 0.0 in
  Perfbench.Outcome.set out (Printf.sprintf "model.%s.cpi" src)
    (per_inst (fun m -> m.cycles));
  if src = "eds" then
    Perfbench.Outcome.set out "model.eds.mpki"
      (1000.0 *. per_inst (fun m -> m.mispredicts));
  List.iter
    (fun cause ->
      Perfbench.Outcome.set out
        (Printf.sprintf "model.%s.stall_cpi.%s" src cause)
        (per_inst (fun m ->
             Option.value ~default:0
               (List.assoc_opt cause (Uarch.Metrics.stall_causes m.stalls)))))
    Perfbench.Decl.stall_causes

(* Set every declared metric in [names] to 0: the layer is not on this
   workload's path (documented as "0 = not measured here"). *)
let not_measured out names = List.iter (fun n -> Perfbench.Outcome.set out n 0.0) names

let prefixed p =
  List.filter_map
    (fun (m : Perfbench.Decl.metric) ->
      if String.length m.name >= String.length p
         && String.sub m.name 0 (String.length p) = p
      then Some m.name
      else None)
    Perfbench.Decl.per_layer

(* Additivity of a traced run. [domain_wall] is the wall [timed_passes]
   measured with its own clock reads, times the domains; the parts come
   from the recorded spans: the self times of the layer spans, the self
   times of the driver's spans (jobs, and the run's root, which holds
   every domain), and the pool wait of each parallel region. They must
   add up to [domain_wall] within the tolerance, and every part in
   [parts] (labelled per program, region, ...) must be non-negative. *)
let self_sum_tolerance = 0.01

let check_additivity out ~layer_self ~driver_self ~domain_wall ~parts =
  let err = Float.abs (layer_self +. driver_self -. domain_wall) /. domain_wall in
  Perfbench.Outcome.set out "trace.self_sum_err_frac" err;
  Perfbench.Outcome.check out
    (Printf.sprintf "span self times add up to the traced wall (err %.4f)" err)
    (err <= self_sum_tolerance);
  List.iter
    (fun (label, v) ->
      Perfbench.Outcome.check out
        (Printf.sprintf "%s self time is non-negative (%.6fs)" label v)
        (v >= 0.0))
    parts

let write_spans ~path spans =
  Perfbench.Proc.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Perfbench.Spans.to_json s ^ "\n")) spans;
  close_out oc;
  log "perfbench: %d spans written to %s" (List.length spans) path

(* Peak memory after the first two timed passes: a fixed amount of work.
   Read at the end of the run, the high-water mark would rise with the
   number of passes a fast host fits into it. *)
let peak_rss_after_two out pass i =
  let r = pass i in
  if i = 1 then
    Option.iter (Perfbench.Outcome.set out "peak_rss_mb") (Perfbench.Proc.peak_rss_mb ());
  r

let golden_path = "perfbench/golden.txt"

(* Compare a run's digest with the recorded golden value for its seed.
   An unreadable golden file fails the check; so does a missing entry
   when [required], else the run's own determinism checks stand in. *)
let check_golden ?(required = false) out ~workload ~seed digest =
  log "perfbench: %s seed %d digest %s" workload seed digest;
  match Perfbench.Golden.load golden_path with
  | Error e -> Perfbench.Outcome.check out ("golden file readable: " ^ e) false
  | Ok table -> (
    match Perfbench.Golden.find table ~workload ~seed with
    | Some d -> Perfbench.Outcome.check out "golden digest" (d = digest)
    | None when required ->
      Perfbench.Outcome.check out
        (Printf.sprintf "golden digest recorded for %s seed %d" workload seed)
        false
    | None -> log "perfbench: no golden digest recorded for seed %d" seed)
