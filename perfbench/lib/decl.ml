(* Every metric the benchmark emits: name, unit, better direction and,
   for end-to-end metrics, the bound (share of the parent's median) by
   which it may worsen before a change counts as a regression.
   BENCHMARK.json at the repository root mirrors this table; the
   self-tests check that they agree. *)

type better = Higher | Lower
type scope = End_to_end of float  (** bound *) | Per_layer

type metric = { name : string; unit : string; better : better; scope : scope }

let e2e name unit better bound =
  { name; unit; better; scope = End_to_end bound }

let layer name unit better = { name; unit; better; scope = Per_layer }

(* Bounds: timings get the largest bound the host's noise allows (its
   speed drifts by +-20% within seconds); allocation and memory are
   steadier; the accuracy errors are exact. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "sim_ips" "inst/s" Higher 0.25;
    e2e "points_per_s" "1/s" Higher 0.25;
    e2e "requests_per_s" "1/s" Higher 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "alloc_words_per_inst" "words/inst" Lower 0.1;
    e2e "peak_rss_mb" "MB" Lower 0.2;
    e2e "ipc_err_pct" "%" Lower 0.1;
    e2e "edp_err_pct" "%" Lower 0.1;
  ]

let stall_causes =
  [
    "ruu_full"; "lsq_full"; "fetch_redirect"; "icache_miss"; "squash_drain";
    "frontend_empty";
  ]

let per_layer =
  [
    layer "workload.ips" "inst/s" Higher;
    layer "workload.words_per_inst" "words/inst" Lower;
    layer "profile.self_s" "s" Lower;
    layer "profile.self_ips" "inst/s" Higher;
    layer "profile.words_per_inst" "words/inst" Lower;
    layer "profile.sfg_nodes" "count" Lower;
    layer "kernel.compile_s" "s" Lower;
    layer "kernel.plan_nodes" "count" Lower;
    layer "kernel.plan_slots" "count" Lower;
    layer "synth.generate.ips" "inst/s" Higher;
    layer "synth.generate.words_per_inst" "words/inst" Lower;
    layer "synth.pipeline.ips" "inst/s" Higher;
    layer "synth.pipeline.ns_per_cycle" "ns/cycle" Lower;
    layer "synth.pipeline.words_per_inst" "words/inst" Lower;
    layer "synth.pipeline.share" "frac" Lower;
    layer "uarch.eds.self_ips" "inst/s" Higher;
    layer "uarch.eds.ns_per_cycle" "ns/cycle" Lower;
    layer "uarch.eds.words_per_inst" "words/inst" Lower;
    layer "uarch.eds.share" "frac" Lower;
    layer "speedup.synth_vs_eds" "x" Higher;
    layer "model.eds.cpi" "cycles/inst" Lower;
    layer "model.synth.cpi" "cycles/inst" Lower;
    layer "model.eds.mpki" "1/kinst" Lower;
  ]
  @ List.concat_map
      (fun src ->
        List.map
          (fun c ->
            layer
              (Printf.sprintf "model.%s.stall_cpi.%s" src c)
              "cycles/inst" Lower)
          stall_causes)
      [ "eds"; "synth" ]
  @ [
      layer "dse.driver.self_s" "s" Lower;
      layer "dse.frontier_points" "count" Higher;
      layer "runner.pool.busy_frac" "frac" Higher;
    ]
  @ List.map
      (fun a -> layer (Printf.sprintf "runner.cache.%s.hit_ratio" a) "frac" Higher)
      [ "profile"; "plan"; "reference"; "estimate" ]
  @ List.map
      (fun a -> layer (Printf.sprintf "runner.cache.%s_computes" a) "count" Lower)
      [ "profile"; "plan"; "reference" ]
  @ [
      layer "store.hits" "count" Higher;
      layer "store.misses" "count" Lower;
      layer "store.bytes_written" "B" Lower;
      layer "store.quarantined" "count" Lower;
      layer "analytical.estimate_s" "s" Lower;
      layer "server.simulate_warm.p50_ms" "ms" Lower;
      layer "server.simulate_warm.p99_ms" "ms" Lower;
      layer "server.estimate.p50_ms" "ms" Lower;
      layer "server.estimate.p99_ms" "ms" Lower;
      layer "server.simulate_cold.p50_ms" "ms" Lower;
      layer "server.simulate_cold.p90_ms" "ms" Lower;
      layer "server.queue_wait.p50_ms" "ms" Lower;
      layer "server.queue_wait.p99_ms" "ms" Lower;
      layer "server.latency_p99_ms" "ms" Lower;
      layer "server.floor_ms" "ms" Lower;
      layer "server.shed" "count" Lower;
      layer "server.deadline_exceeded" "count" Lower;
      layer "server.malformed" "count" Lower;
      layer "trace.overhead_frac" "frac" Lower;
      layer "trace.self_sum_err_frac" "frac" Lower;
      layer "failed_frac" "frac" Lower;
    ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun m -> m.name = name) all

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let better_string = function Higher -> "higher" | Lower -> "lower"

let workloads =
  [
    ( "accuracy-study",
      "Fig 6 validation of all 10 programs (300k EDS, profile, plan, 40k \
       synthetic): EDS feed, caches, predictors and the profiler carry the \
       time" );
    ( "design-sweep",
      "48-point ruu x lsq x width sweep from one gcc profile and plan: the \
       synthetic pipeline carries the time and EDS is absent" );
    ( "serve-mixed",
      "statsim serve, 2 workers, 2 closed-loop clients: warm simulate, \
       estimate, cold simulate (store writes) and pre-filled first touches \
       (store reads)" );
  ]

(* Seconds one run measures: about eight accuracy-study passes, a dozen
   sweeps or five thousand serve requests on two cores. *)
let run_seconds = 30

(* The BENCHMARK.json manifest for this table. *)
let manifest () =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "{\n";
  p "  \"command\": [\"bash\", \"perfbench/run.sh\"],\n";
  p "  \"paths\": [\"perfbench\"],\n";
  p "  \"run_seconds\": %d,\n" run_seconds;
  p "  \"workloads\": [\n";
  List.iteri
    (fun i (name, why) ->
      p "    {\"name\": %S, \"why\": %S}%s\n" name why
        (if i + 1 < List.length workloads then "," else ""))
    workloads;
  p "  ],\n";
  let block key ms =
    p "  %S: [\n" key;
    List.iteri
      (fun i m ->
        let bound =
          match m.scope with
          | End_to_end bd -> Printf.sprintf ", \"bound\": %g" bd
          | Per_layer -> ""
        in
        p "    {\"name\": %S, \"unit\": %S, \"better\": %S%s}%s\n" m.name m.unit
          (better_string m.better) bound
          (if i + 1 < List.length ms then "," else ""))
      ms;
    p "  ]"
  in
  block "end_to_end" end_to_end;
  p ",\n";
  block "per_layer" per_layer;
  p "\n}\n";
  Buffer.contents b
