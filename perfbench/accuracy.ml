(* accuracy-study: the paper's Fig 6 validation flow over all ten
   programs — EDS reference, profile, plan and one synthetic simulation
   per program, with the synthetic-vs-EDS error as the accuracy
   result. *)

open Common
module O = Perfbench.Outcome
module S = Perfbench.Spans

let specs = Array.of_list Workload.Suite.all

(* The inputs of a pass: a stream offset and a synthetic seed per
   program. *)
type inputs = { offset : int; syn_seed : int -> int }

let seeded seed = { offset = seed_offset seed; syn_seed = (fun i -> master_seed seed + i) }

(* Fig 6 exactly: default streams, one synthetic seed for every program *)
let fig6 = { offset = 0; syn_seed = (fun _ -> fig6_seed) }

let stream inp spec () =
  Workload.Suite.stream ~seed_offset:inp.offset spec ~length:ref_length

type row = { name : string; eds : Uarch.Metrics.t; ss : Uarch.Metrics.t }

(* One program through the untraced flow, the same calls Fig 6 makes. *)
let validate inp i spec =
  let eds = Statsim.reference cfg (stream inp spec ()) in
  let p = Statsim.profile cfg (stream inp spec ()) in
  let plan = Statsim.compile_plan ~target_length:syn_length p in
  let ss = Statsim.run_plan cfg plan ~seed:(inp.syn_seed i) in
  { name = spec.Workload.Spec.name; eds = eds.Statsim.metrics; ss = ss.Statsim.metrics }

let pass inp =
  Parallel.map ~jobs (fun (i, s) -> validate inp i s) (Array.mapi (fun i s -> (i, s)) specs)

let digest rows =
  Perfbench.Golden.digest
    (List.concat_map (fun r -> [ r.name; encode r.eds; encode r.ss ])
       (Array.to_list rows))

let instructions rows =
  Array.fold_left (fun n r -> n + r.eds.committed + r.ss.committed) 0 rows

(* Set-up: build every program's static code, as a first stream does
   (median of 15). *)
let setup () =
  snd
    (median_time 15 (fun () ->
         Array.iter (fun s -> ignore (Workload.Suite.program s)) specs))

let check_rows out rows =
  Array.iter
    (fun r ->
      O.check out (r.name ^ ": EDS result sane")
        (sane r.eds && r.eds.committed = ref_length);
      O.check out (r.name ^ ": synthetic result sane") (sane r.ss))
    rows

let errors rows =
  let rows = Array.to_list rows in
  let res cfg_m = Statsim.result_of_metrics cfg cfg_m in
  let err f =
    Stats.Summary.mean
      (List.map
         (fun r -> rel_err ~reference:(f (res r.eds)) ~predicted:(f (res r.ss)))
         rows)
  in
  (err (fun r -> r.Statsim.ipc), err (fun r -> r.Statsim.edp))

(* The Fig 6 pass, outside the timed region: the accuracy result and a
   golden digest that every run checks. *)
let set_errors out =
  let rows = pass fig6 in
  check_rows out rows;
  check_golden ~required:true out ~workload:"accuracy-study.fig6" ~seed:0 (digest rows);
  let ipc, edp = errors rows in
  O.set out "ipc_err_pct" ipc;
  O.set out "edp_err_pct" edp

let untraced (a : args) out =
  let setup_s = setup () in
  O.set out "setup_s" setup_s;
  let w0 = Perfbench.Proc.process_words () in
  let passes, _ =
    timed_passes ~seconds:a.seconds (peak_rss_after_two out (fun _ -> pass (seeded a.seed)))
  in
  let w1 = Perfbench.Proc.process_words () in
  let first = fst (List.hd passes) in
  let d0 = digest first in
  List.iter
    (fun (rows, _) ->
      check_rows out rows;
      O.check out "pass digest equals the first pass's" (digest rows = d0))
    passes;
  check_golden out ~workload:"accuracy-study" ~seed:a.seed d0;
  let total_inst =
    float_of_int (isum (fun (rows, _) -> instructions rows) passes)
  in
  (* rates: the median over passes, robust to a pass slowed by the host;
     a request is one whole Fig 6 study (a pass), a point one program *)
  let rate f = median (List.map (fun (rows, dt) -> f rows /. dt) passes) in
  O.set out "sim_ips" (rate (fun rows -> float_of_int (instructions rows)));
  O.set out "points_per_s" (rate (fun rows -> float_of_int (Array.length rows)));
  O.set out "requests_per_s" (rate (fun _ -> 1.0));
  O.set out "latency_p50_ms" (1000.0 *. median (List.map snd passes));
  O.set out "alloc_words_per_inst" ((w1 -. w0) /. total_inst);
  set_errors out;
  log "perfbench: accuracy-study %d passes, setup %.4fs" (List.length passes) setup_s

(* --- traced run --- *)

type layer_sample = {
  lname : string;
  drain : float;  (** seconds to drain the stream alone *)
  drain_words : float;
  eds_s : float;
  eds_words : float;
  prof_s : float;
  prof_words : float;
  plan_s : float;
  gen_s : float;
  gen_words : float;
  pipe_s : float;
  pipe_words : float;
  job_s : float;
  sfg_nodes : int;
  plan_nodes : int;
  plan_slots : int;
  syn_inst : int;
  tr_eds : Uarch.Metrics.t;
  tr_ss : Uarch.Metrics.t;
  plan : Kernel.Plan.t;
  profile : Profile.Stat_profile.t;
}

(* Time [f] on the calling domain under span [name]; returns the
   result, seconds and words allocated by this domain. *)
let measured spans ~parent ~req name f =
  S.span spans ~parent ~req name (fun _ ->
      let w0 = Perfbench.Proc.domain_words () in
      let t0 = now () in
      let v = f () in
      let dt = now () -. t0 in
      (v, dt, Perfbench.Proc.domain_words () -. w0))

let traced_validate spans ~parent inp i spec =
  let req = spec.Workload.Spec.name in
  let t0 = now () in
  S.span spans ~parent ~req "validate" (fun job ->
      let m name f = measured spans ~parent:job ~req name f in
      let _, drain, drain_words =
        m "workload" (fun () ->
            let g = stream inp spec () in
            let n = ref 0 in
            while g () <> None do incr n done;
            !n)
      in
      let tr_eds, eds_s, eds_words =
        m "uarch.eds" (fun () -> Uarch.Eds.run cfg (stream inp spec ()))
      in
      let profile, prof_s, prof_words =
        m "profile" (fun () -> Statsim.profile cfg (stream inp spec ()))
      in
      let plan, plan_s, _ =
        m "kernel" (fun () -> Statsim.compile_plan ~target_length:syn_length profile)
      in
      let trace, gen_s, gen_words =
        m "synth.generate" (fun () ->
            Synth.Generate.generate_of_plan plan ~seed:(inp.syn_seed i))
      in
      let tr_ss, pipe_s, pipe_words = m "synth.pipeline" (fun () -> Synth.Run.run cfg trace) in
      {
        lname = req; drain; drain_words; eds_s; eds_words; prof_s; prof_words;
        plan_s; gen_s; gen_words; pipe_s; pipe_words;
        job_s = now () -. t0;
        sfg_nodes = Profile.Sfg.node_count profile.Profile.Stat_profile.sfg;
        plan_nodes = Kernel.Plan.nnodes plan;
        plan_slots = Kernel.Plan.nslots plan;
        syn_inst = tr_ss.committed;
        tr_eds; tr_ss; plan; profile;
      })

let traced (a : args) out ~spans_path =
  (* one untraced pass: its outputs and wall are what the traced passes
     are compared with *)
  let base, _ =
    timed_passes ~min_passes:1 ~seconds:(a.seconds /. 3.0) (fun _ -> pass (seeded a.seed))
  in
  let base_rows = fst (List.hd base) in
  let spans = S.create () in
  let passes, traced_wall =
    S.span spans ~parent:(-1) ~req:"run" "bench.run" (fun root ->
        timed_passes ~seconds:a.seconds (fun k ->
            S.span spans ~parent:root ~req:(Printf.sprintf "pass%d" k) "pass"
              (fun p ->
                Parallel.map ~jobs
                  (fun (i, s) -> traced_validate spans ~parent:p (seeded a.seed) i s)
                  (Array.mapi (fun i s -> (i, s)) specs))))
  in
  let all = List.concat_map (fun (ls, _) -> Array.to_list ls) passes in
  let last = fst (List.nth passes (List.length passes - 1)) in
  (* outputs: traced equals untraced; fused equals generate + run *)
  let traced_digest =
    Perfbench.Golden.digest
      (List.concat_map (fun l -> [ l.lname; encode l.tr_eds; encode l.tr_ss ])
         (Array.to_list last))
  in
  O.check out "traced outputs equal the untraced pass's"
    (traced_digest = digest base_rows);
  check_golden out ~workload:"accuracy-study" ~seed:a.seed traced_digest;
  Array.iteri
    (fun i l ->
      let fused = (Statsim.run_plan cfg l.plan ~seed:((seeded a.seed).syn_seed i)).Statsim.metrics in
      O.check out (l.lname ^ ": fused run_plan equals generate + run")
        (encode fused = encode l.tr_ss))
    last;
  (* analytical: the steady-state solve on each program's profile *)
  let est =
    Array.to_list
      (Array.map
         (fun l ->
           snd (time (fun () ->
                    Runner.Cache.estimate (Runner.Cache.create ())
                      ~target_length:syn_length cfg l.profile)))
         last)
  in
  O.set out "analytical.estimate_s" (median est);
  let npass = float_of_int (List.length passes) in
  let per_pass f = fsum f all /. npass in
  let eds_inst = float_of_int ref_length *. float_of_int (List.length all) in
  let syn_inst = float_of_int (isum (fun l -> l.syn_inst) all) in
  let drain = fsum (fun l -> l.drain) all in
  let eds_self = fsum (fun l -> l.eds_s -. l.drain) all in
  let prof_self = fsum (fun l -> l.prof_s -. l.drain) all in
  let gen = fsum (fun l -> l.gen_s) all and pipe = fsum (fun l -> l.pipe_s) all in
  (* real work excludes the separate drain, which exists only to
     measure the stream's own cost *)
  let work = fsum (fun l -> l.job_s -. l.drain) all in
  O.set out "workload.ips" (eds_inst /. drain);
  O.set out "workload.words_per_inst" (fsum (fun l -> l.drain_words) all /. eds_inst);
  O.set out "profile.self_s" (prof_self /. npass);
  O.set out "profile.self_ips" (eds_inst /. prof_self);
  O.set out "profile.words_per_inst"
    (fsum (fun l -> l.prof_words -. l.drain_words) all /. eds_inst);
  O.set out "profile.sfg_nodes" (float_of_int (Array.fold_left (fun n l -> n + l.sfg_nodes) 0 last));
  O.set out "kernel.compile_s" (per_pass (fun l -> l.plan_s));
  O.set out "kernel.plan_nodes" (float_of_int (Array.fold_left (fun n l -> n + l.plan_nodes) 0 last));
  O.set out "kernel.plan_slots" (float_of_int (Array.fold_left (fun n l -> n + l.plan_slots) 0 last));
  O.set out "synth.generate.ips" (syn_inst /. gen);
  O.set out "synth.generate.words_per_inst" (fsum (fun l -> l.gen_words) all /. syn_inst);
  O.set out "synth.pipeline.ips" (syn_inst /. pipe);
  O.set out "synth.pipeline.ns_per_cycle"
    (1e9 *. pipe /. float_of_int (isum (fun l -> l.tr_ss.cycles) all));
  O.set out "synth.pipeline.words_per_inst" (fsum (fun l -> l.pipe_words) all /. syn_inst);
  O.set out "synth.pipeline.share" (pipe /. work);
  O.set out "uarch.eds.self_ips" (eds_inst /. eds_self);
  O.set out "uarch.eds.ns_per_cycle"
    (1e9 *. eds_self /. float_of_int (isum (fun l -> l.tr_eds.cycles) all));
  O.set out "uarch.eds.words_per_inst"
    (fsum (fun l -> l.eds_words -. l.drain_words) all /. eds_inst);
  O.set out "uarch.eds.share" (eds_self /. work);
  O.set out "speedup.synth_vs_eds" ((eds_self /. eds_inst) /. ((gen +. pipe) /. syn_inst));
  set_model out "eds" (Array.to_list (Array.map (fun l -> l.tr_eds) last));
  set_model out "synth" (Array.to_list (Array.map (fun l -> l.tr_ss) last));
  let job_total = fsum (fun l -> l.job_s) all in
  let domain_wall = traced_wall *. float_of_int jobs in
  O.set out "runner.pool.busy_frac" (job_total /. domain_wall);
  (* additivity on the span tree: the layer spans (the separate drain
     included, it is domain time spent in [workload]), the self time of
     every [validate] job, the pool wait of every pass and the root's
     own time, against the wall [timed_passes] measured *)
  let recorded = S.spans spans in
  let self = S.self_of (S.self_by_name recorded) in
  let waits = S.pool_waits ~jobs recorded ~region:"pass" in
  check_additivity out
    ~layer_self:
      (fsum self
         [ "workload"; "uarch.eds"; "profile"; "kernel"; "synth.generate"; "synth.pipeline" ])
    ~driver_self:(self "validate" +. fsum Fun.id waits +. (float_of_int jobs *. self "bench.run"))
    ~domain_wall
    ~parts:
      (List.concat_map
         (fun l -> [ (l.lname ^ ": uarch.eds", l.eds_s -. l.drain); (l.lname ^ ": profile", l.prof_s -. l.drain) ])
         all
      @ List.mapi (fun k w -> (Printf.sprintf "pass %d pool wait" k, w)) waits);
  O.set out "trace.overhead_frac"
    ((median (List.map snd passes) /. median (List.map snd base)) -. 1.0);
  not_measured out
    ([ "dse.driver.self_s"; "dse.frontier_points"; "store.hits"; "store.misses";
       "store.bytes_written"; "store.quarantined" ]
    @ prefixed "runner.cache." @ prefixed "server.");
  write_spans ~path:spans_path (S.spans spans);
  log "perfbench: accuracy-study traced %d passes; eds share %.3f" (List.length passes)
    (eds_self /. work)
