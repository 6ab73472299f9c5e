(* design-sweep: many machine configurations from one profile — gcc is
   profiled and its plan compiled once (set-up), then [Dse.Driver.run]
   evaluates the 48-point ruu x lsq x width sweep with replicas. *)

open Common
module O = Perfbench.Outcome
module S = Perfbench.Spans

let replicas = 4
let bench = Workload.Suite.find "gcc"

(* The checked-in example sweep; [check_result] fails a run if it no
   longer has 48 points. *)
let sweep_path = "examples/sweep_ruu_lsq.json"

let load_sweep () =
  match Dse.Sweep.load_file sweep_path with
  | Ok s -> s
  | Error e -> failwith (sweep_path ^ ": " ^ e)

(* The key [Dse.Driver.run] files its profile under. *)
let stream_key = Printf.sprintf "int:%s:o0:n%d" bench.Workload.Spec.name ref_length
let stream () = Workload.Suite.stream bench ~length:ref_length

(* Set-up: collect the profile and compile the plan into a fresh cache,
   as the first sweep of a session does. *)
let prepare () =
  let cache = Runner.Cache.create () in
  let p, prof_s = time (fun () -> Runner.Cache.profile cache cfg ~stream_key (fun () -> stream ())) in
  let plan, plan_s = time (fun () -> Runner.Cache.plan cache ~target_length:syn_length p) in
  (cache, p, plan, prof_s, plan_s)

let setup () =
  let n = 9 in
  let runs = List.init n (fun _ -> time prepare) in
  let (cache, p, plan, prof_s, plan_s), _ = List.nth runs (n - 1) in
  (cache, p, plan, prof_s, plan_s, median (List.map snd runs))

let run_driver cache ~seed sweep =
  match
    Dse.Driver.run ~cache ~jobs ~replicas ~sweep ~bench ~length:ref_length
      ~target_length:syn_length ~seed:(master_seed seed) ()
  with
  | Ok r -> r
  | Error e -> failwith ("Dse.Driver.run: " ^ e)

let digest (r : Dse.Driver.t) extra =
  Perfbench.Golden.digest
    (Array.to_list
       (Array.map
          (fun (p : Dse.Driver.point_result) ->
            Printf.sprintf "%s %h %h %h %h %h %b" p.label p.ipc.mean p.ipc.ci95 p.epc
              p.edp.mean p.edp.ci95 p.on_frontier)
          r.points)
    @ extra)

let traces ~seed plan =
  Array.map
    (fun s -> Synth.Generate.generate_of_plan plan ~seed:s)
    (Synth.Replicate.split_seeds ~master_seed:(master_seed seed) ~n:replicas)

(* Accuracy at the baseline configuration, on the Fig 6 inputs: the EDS
   reference of the profiled stream against the replica mean the sweep
   computes for its baseline point, at the Fig 6 seed. Computed outside
   the timed region; EDS is not part of this workload's work. *)
let baseline_error out plan =
  let eds = Statsim.reference cfg (stream ()) in
  let res =
    List.map
      (fun s ->
        Statsim.result_of_metrics cfg
          (Synth.Run.run cfg (Synth.Generate.generate_of_plan plan ~seed:s)))
      (Array.to_list (Synth.Replicate.split_seeds ~master_seed:fig6_seed ~n:replicas))
  in
  let mean f = Stats.Summary.mean (List.map f res) in
  O.set out "ipc_err_pct" (rel_err ~reference:eds.Statsim.ipc ~predicted:(mean (fun r -> r.Statsim.ipc)));
  O.set out "edp_err_pct" (rel_err ~reference:eds.Statsim.edp ~predicted:(mean (fun r -> r.Statsim.edp)));
  eds

let check_result out (r : Dse.Driver.t) =
  O.check out "48 points evaluated" (Array.length r.points = 48);
  O.check out "non-empty frontier" (r.frontier_count > 0);
  O.check out "finite point IPCs"
    (Array.for_all (fun (p : Dse.Driver.point_result) ->
         Float.is_finite p.ipc.mean && p.ipc.mean > 0.0) r.points)

let check_computes out cache =
  let st = Runner.Cache.stats cache in
  O.check out "one profile collection and one plan compilation"
    (st.profile_computes = 1 && st.plan_computes = 1);
  st

let untraced (a : args) out =
  let sweep = load_sweep () in
  let cache, _, plan, _, _, setup_s = setup () in
  O.set out "setup_s" setup_s;
  let w0 = Perfbench.Proc.process_words () in
  let passes, _ =
    timed_passes ~seconds:a.seconds
      (peak_rss_after_two out (fun _ -> run_driver cache ~seed:a.seed sweep))
  in
  let w1 = Perfbench.Proc.process_words () in
  ignore (check_computes out cache);
  let first = fst (List.hd passes) in
  let eds = baseline_error out plan in
  let d0 = digest first [ encode eds.Statsim.metrics ] in
  List.iter
    (fun (r, _) ->
      check_result out r;
      O.check out "sweep digest equals the first sweep's"
        (digest r [ encode eds.Statsim.metrics ] = d0))
    passes;
  check_golden out ~workload:"design-sweep" ~seed:a.seed d0;
  let per_point = isum Synth.Trace.length (Array.to_list (traces ~seed:a.seed plan)) in
  let inst = float_of_int (per_point * Array.length first.points) in
  let npoints = float_of_int (Array.length first.points) in
  (* rates: the median over sweeps, robust to a sweep slowed by the host *)
  let rate work = median (List.map (fun (_, dt) -> work /. dt) passes) in
  O.set out "sim_ips" (rate inst);
  O.set out "points_per_s" (rate npoints);
  O.set out "requests_per_s" (rate 1.0);
  O.set out "latency_p50_ms" (1000.0 *. median (List.map snd passes));
  O.set out "alloc_words_per_inst"
    ((w1 -. w0) /. (inst *. float_of_int (List.length passes)));
  log "perfbench: design-sweep %d sweeps, setup %.4fs" (List.length passes) setup_s

let golden_digest ~seed =
  let sweep = load_sweep () in
  let cache, _, _, _, _ = prepare () in
  let r = run_driver cache ~seed sweep in
  let eds = Statsim.reference cfg (stream ()) in
  digest r [ encode eds.Statsim.metrics ]

(* --- traced run --- *)

(* The driver's per-point work, one layer call at a time. *)
let loop ?spans ?(parent = -1) ~seed plan (points : Dse.Driver.point_result array) =
  let span ~parent ~req name f =
    match spans with None -> f (-1) | Some t -> S.span t ~parent ~req name f
  in
  let t0 = now () in
  span ~parent ~req:"sweep" "sweep" (fun root ->
      let trs, gen_s =
        time (fun () ->
            span ~parent:root ~req:"traces" "synth.generate" (fun _ ->
                traces ~seed plan))
      in
      let results =
        Parallel.map ~jobs
          (fun (p : Dse.Driver.point_result) ->
            let pcfg = Dse.Sweep.apply cfg p.point in
            let j0 = now () in
            let w0 = Perfbench.Proc.domain_words () in
            let ms =
              span ~parent:root ~req:p.label "point" (fun pid ->
                  Array.map
                    (fun tr ->
                      time (fun () ->
                          span ~parent:pid ~req:p.label "synth.pipeline"
                            (fun _ -> Synth.Run.run pcfg tr)))
                    trs)
            in
            (ms, now () -. j0, Perfbench.Proc.domain_words () -. w0, pcfg))
          points
      in
      (trs, gen_s, results, now () -. t0))

let traced (a : args) out ~spans_path =
  let sweep = load_sweep () in
  let w_d0 = Perfbench.Proc.domain_words () in
  let _, drain = time (fun () -> let g = stream () in while g () <> None do () done) in
  let w_d1 = Perfbench.Proc.domain_words () in
  let cache, profile, plan, prof_s, plan_s, _ = setup () in
  let w_p0 = Perfbench.Proc.domain_words () in
  ignore (Statsim.profile cfg (stream ()));
  let w_p1 = Perfbench.Proc.domain_words () in
  let inst = float_of_int ref_length in
  O.set out "workload.ips" (inst /. drain);
  O.set out "workload.words_per_inst" ((w_d1 -. w_d0) /. inst);
  O.set out "profile.self_s" (prof_s -. drain);
  O.set out "profile.self_ips" (inst /. (prof_s -. drain));
  O.set out "profile.words_per_inst" ((w_p1 -. w_p0 -. (w_d1 -. w_d0)) /. inst);
  O.set out "profile.sfg_nodes" (float_of_int (Profile.Sfg.node_count profile.Profile.Stat_profile.sfg));
  O.set out "kernel.compile_s" plan_s;
  O.set out "kernel.plan_nodes" (float_of_int (Kernel.Plan.nnodes plan));
  O.set out "kernel.plan_slots" (float_of_int (Kernel.Plan.nslots plan));
  let third = a.seconds /. 3.0 in
  let drivers, _ =
    timed_passes ~min_passes:1 ~seconds:third (fun _ -> run_driver cache ~seed:a.seed sweep)
  in
  let r = fst (List.hd drivers) in
  let loops, _ =
    timed_passes ~min_passes:1 ~seconds:third (fun _ -> loop ~seed:a.seed plan r.points)
  in
  let driver_wall = median (List.map snd drivers) and loop_wall = median (List.map snd loops) in
  let spans = S.create () in
  let passes, traced_wall =
    S.span spans ~parent:(-1) ~req:"run" "bench.run" (fun root ->
        timed_passes ~seconds:a.seconds (fun _ ->
            loop ~spans ~parent:root ~seed:a.seed plan r.points))
  in
  (* outputs: the traced per-point loop reproduces the driver's points *)
  let trs, _, results, _ = fst (List.nth passes (List.length passes - 1)) in
  Array.iteri
    (fun i (ms, _, _, pcfg) ->
      let res = Array.to_list (Array.map (fun (m, _) -> Statsim.result_of_metrics pcfg m) ms) in
      let p = r.points.(i) in
      O.check out (p.label ^ ": driver IPC equals the per-point loop")
        (Stats.Summary.mean (List.map (fun x -> x.Statsim.ipc) res) = p.ipc.mean
        && Stats.Summary.mean (List.map (fun x -> x.Statsim.edp) res) = p.edp.mean))
    results;
  O.check out "synthetic commits equal trace lengths"
    (Array.for_all
       (fun (ms, _, _, _) ->
         Array.for_all2 (fun ((m : Uarch.Metrics.t), _) tr -> m.committed = Synth.Trace.length tr) ms trs)
       results);
  let st = check_computes out cache in
  let eds = baseline_error out plan in
  check_golden out ~workload:"design-sweep" ~seed:a.seed (digest r [ encode eds.Statsim.metrics ]);
  let all = List.concat_map (fun ((_, _, res, _), _) -> Array.to_list res) passes in
  let pipe = fsum (fun (ms, _, _, _) -> fsum snd (Array.to_list ms)) all in
  let pipe_words = fsum (fun (_, _, w, _) -> w) all in
  let jobs_s = fsum (fun (_, j, _, _) -> j) all in
  let gen = fsum (fun ((_, g, _, _), _) -> g) passes in
  let syn_inst = float_of_int (isum (fun (ms, _, _, _) -> isum (fun ((m : Uarch.Metrics.t), _) -> m.committed) (Array.to_list ms)) all) in
  let cycles = float_of_int (isum (fun (ms, _, _, _) -> isum (fun ((m : Uarch.Metrics.t), _) -> m.cycles) (Array.to_list ms)) all) in
  let gen_inst = float_of_int (List.length passes * isum Synth.Trace.length (Array.to_list trs)) in
  let gw0 = Perfbench.Proc.domain_words () in
  ignore (traces ~seed:a.seed plan);
  let gen_words = Perfbench.Proc.domain_words () -. gw0 in
  O.set out "synth.generate.ips" (gen_inst /. gen);
  O.set out "synth.generate.words_per_inst" (gen_words /. (gen_inst /. float_of_int (List.length passes)));
  O.set out "synth.pipeline.ips" (syn_inst /. pipe);
  O.set out "synth.pipeline.ns_per_cycle" (1e9 *. pipe /. cycles);
  O.set out "synth.pipeline.words_per_inst" (pipe_words /. syn_inst);
  O.set out "synth.pipeline.share" (pipe /. (jobs_s +. gen));
  O.set out "uarch.eds.share" 0.0;
  not_measured out [ "uarch.eds.self_ips"; "uarch.eds.ns_per_cycle"; "uarch.eds.words_per_inst"; "speedup.synth_vs_eds" ];
  set_model out "eds" [ eds.Statsim.metrics ];
  let last_ms = List.concat_map (fun (ms, _, _, _) -> List.map fst (Array.to_list ms)) (Array.to_list results) in
  set_model out "synth" last_ms;
  O.set out "dse.driver.self_s" (driver_wall -. loop_wall);
  O.set out "dse.frontier_points" (float_of_int r.frontier_count);
  let domain_wall = traced_wall *. float_of_int jobs in
  O.set out "runner.pool.busy_frac" ((jobs_s +. gen) /. domain_wall);
  let ratio h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
  O.set out "runner.cache.profile.hit_ratio" (ratio st.profile_hits st.profile_misses);
  O.set out "runner.cache.plan.hit_ratio" (ratio st.plan_hits st.plan_misses);
  O.set out "runner.cache.reference.hit_ratio" (ratio st.reference_hits st.reference_misses);
  O.set out "runner.cache.estimate.hit_ratio" (ratio st.estimate_hits st.estimate_misses);
  O.set out "runner.cache.profile_computes" (float_of_int st.profile_computes);
  O.set out "runner.cache.plan_computes" (float_of_int st.plan_computes);
  O.set out "runner.cache.reference_computes" (float_of_int st.reference_computes);
  let _, est = time (fun () -> Runner.Cache.estimate (Runner.Cache.create ()) ~target_length:syn_length cfg profile) in
  O.set out "analytical.estimate_s" est;
  (* additivity on the span tree: generation and pipeline spans, the
     self time of every [point] job, the pool wait of every sweep and
     the root's own time, against the wall [timed_passes] measured *)
  let recorded = S.spans spans in
  let self = S.self_of (S.self_by_name recorded) in
  let waits = S.pool_waits ~jobs recorded ~region:"sweep" in
  check_additivity out
    ~layer_self:(self "synth.generate" +. self "synth.pipeline")
    ~driver_self:(self "point" +. fsum Fun.id waits +. (float_of_int jobs *. self "bench.run"))
    ~domain_wall
    ~parts:(List.mapi (fun k w -> (Printf.sprintf "sweep %d pool wait" k, w)) waits);
  O.set out "trace.overhead_frac" ((median (List.map snd passes) /. loop_wall) -. 1.0);
  not_measured out ([ "store.hits"; "store.misses"; "store.bytes_written"; "store.quarantined" ] @ prefixed "server.");
  write_spans ~path:spans_path (S.spans spans);
  log "perfbench: design-sweep traced %d sweeps; pipeline share %.3f" (List.length passes)
    (pipe /. (jobs_s +. gen))
