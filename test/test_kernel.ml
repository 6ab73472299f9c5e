(* Compiled synthesis kernel: fixed-point threshold guards, Fenwick
   tree, plan codec round-trips, the walk's counts against the paper's
   reduction rule in closed form, event-driven pipeline equivalence,
   and the runner's plan cache tier. *)

let check = Alcotest.(check bool)

let cfg = Config.Machine.baseline

let profile_of name len =
  Statsim.profile cfg (Workload.Suite.stream (Workload.Suite.find name) ~length:len)

(* --- fixed-point thresholds: the centralized guard --- *)

let test_threshold_guards () =
  Alcotest.(check int) "zero denominator" 0
    (Kernel.Plan.threshold ~num:3 ~den:0);
  Alcotest.(check int) "negative denominator" 0
    (Kernel.Plan.threshold ~num:3 ~den:(-1));
  Alcotest.(check int) "zero numerator" 0 (Kernel.Plan.threshold ~num:0 ~den:5);
  Alcotest.(check int) "saturated" Kernel.Plan.two32
    (Kernel.Plan.threshold ~num:5 ~den:5);
  Alcotest.(check int) "over-unity clamps" Kernel.Plan.two32
    (Kernel.Plan.threshold ~num:7 ~den:5);
  Alcotest.(check int) "one half" (Kernel.Plan.two32 / 2)
    (Kernel.Plan.threshold ~num:1 ~den:2);
  (* impossible and certain events must consume no randomness *)
  let rng = Prng.create ~seed:4 in
  check "thr 0 is false" false (Kernel.Plan.sample_rate rng 0);
  check "thr two32 is true" true (Kernel.Plan.sample_rate rng Kernel.Plan.two32);
  let fresh = Prng.create ~seed:4 in
  check "no draws consumed" true (Prng.bits rng = Prng.bits fresh)

let test_meta_packing () =
  Array.iter
    (fun klass ->
      List.iter
        (fun (anti, ndeps) ->
          let m = Kernel.Plan.pack_meta ~klass ~anti ~ndeps in
          check "klass" true (Kernel.Plan.meta_klass m = klass);
          check "is_load" true
            (Kernel.Plan.meta_is_load m = Isa.Iclass.is_load klass);
          check "is_branch" true
            (Kernel.Plan.meta_is_branch m = Isa.Iclass.is_branch klass);
          check "is_mem" true
            (Kernel.Plan.meta_is_mem m = Isa.Iclass.is_mem klass);
          check "has_dest" true
            (Kernel.Plan.meta_has_dest m = Isa.Iclass.has_dest klass);
          check "anti" true (Kernel.Plan.meta_anti m = anti);
          Alcotest.(check int) "ndeps" ndeps (Kernel.Plan.meta_ndeps m);
          Alcotest.(check int) "latency"
            (Config.Machine.op_latency klass)
            (Kernel.Plan.meta_latency m))
        [ (false, 0); (true, 2); (false, 5); (true, 70) ])
    Isa.Iclass.all

(* --- Fenwick tree vs a naive prefix scan --- *)

let naive_find weights x =
  let acc = ref 0 and found = ref (-1) in
  Array.iteri
    (fun i w ->
      if !found < 0 then begin
        acc := !acc + w;
        if !acc >= x then found := i
      end)
    weights;
  !found

let prop_fenwick_matches_naive =
  QCheck.Test.make ~name:"fenwick find matches a naive prefix scan" ~count:200
    QCheck.(
      pair small_int (list_of_size Gen.(1 -- 30) (int_range 0 20)))
    (fun (seed, ws) ->
      QCheck.assume (List.exists (fun w -> w > 0) ws);
      let weights = Array.of_list ws in
      let t = Kernel.Fenwick.create weights in
      let rng = Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        (* interleave decrements like the walk does *)
        let total = Kernel.Fenwick.total t in
        if total > 0 then begin
          let x = 1 + Prng.int rng total in
          let i = Kernel.Fenwick.find t x in
          if i <> naive_find weights x then ok := false;
          weights.(i) <- weights.(i) - 1;
          Kernel.Fenwick.add t i (-1)
        end
      done;
      !ok)

let test_fenwick_bounds () =
  let t = Kernel.Fenwick.create [| 2; 0; 3 |] in
  Alcotest.(check int) "total" 5 (Kernel.Fenwick.total t);
  Alcotest.(check int) "rank 1" 0 (Kernel.Fenwick.find t 1);
  Alcotest.(check int) "rank 2" 0 (Kernel.Fenwick.find t 2);
  Alcotest.(check int) "rank 3 skips empty" 2 (Kernel.Fenwick.find t 3);
  Alcotest.(check int) "rank 5" 2 (Kernel.Fenwick.find t 5);
  Alcotest.check_raises "rank 0" (Invalid_argument "Fenwick.find: rank out of range")
    (fun () -> ignore (Kernel.Fenwick.find t 0));
  Alcotest.check_raises "rank past total"
    (Invalid_argument "Fenwick.find: rank out of range") (fun () ->
      ignore (Kernel.Fenwick.find t 6));
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Fenwick.add: index out of range") (fun () ->
      Kernel.Fenwick.add t 3 1)

(* --- the walk against the paper's reduction rule, in closed form --- *)

let counts_of tbl =
  List.sort compare
    (Hashtbl.fold (fun k c acc -> if c > 0 then (k, c) :: acc else acc) tbl [])

let bump tbl key n =
  Hashtbl.replace tbl key
    (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* What the reduced walk must emit, read off the SFG alone: every node
   survives with floor(occurrences / R) visits and emits all of its
   slots on each one. Returns (trace length, per-block instruction
   counts, per-class counts). *)
let closed_form (p : Profile.Stat_profile.t) ~r =
  let blocks = Hashtbl.create 64 and classes = Hashtbl.create 16 in
  let len = ref 0 in
  Profile.Sfg.iter_nodes p.sfg (fun n ->
      let visits = n.occurrences / r in
      let nslots = Array.length n.slots in
      bump blocks n.block (visits * nslots);
      Array.iter (fun (sl : Profile.Sfg.slot) -> bump classes sl.klass visits)
        n.slots;
      len := !len + (visits * nslots));
  (!len, counts_of blocks, counts_of classes)

let observed (t : Synth.Trace.t) =
  let blocks = Hashtbl.create 64 and classes = Hashtbl.create 16 in
  Array.iter
    (fun (i : Synth.Trace.inst) ->
      bump blocks i.block 1;
      bump classes i.klass 1)
    t.insts;
  (Synth.Trace.length t, counts_of blocks, counts_of classes)

let closed_form_profiles = Hashtbl.create 16

let prop_walk_matches_closed_form =
  let benches = Array.of_list Workload.Suite.names in
  QCheck.Test.make ~name:"walk matches closed-form counts" ~count:40
    QCheck.(
      triple
        (int_bound (Array.length benches - 1))
        (int_bound 3) (int_range 1 64))
    (fun (b, k, r) ->
      let p =
        match Hashtbl.find_opt closed_form_profiles (b, k) with
        | Some p -> p
        | None ->
          let p =
            Statsim.profile ~k cfg
              (Workload.Suite.stream (Workload.Suite.find benches.(b))
                 ~length:6_000)
          in
          Hashtbl.add closed_form_profiles (b, k) p;
          p
      in
      let ((len, _, _) as expected) = closed_form p ~r in
      (* an R that empties the graph is rejected, not walked *)
      QCheck.assume (len > 0);
      let t = Synth.Generate.generate ~reduction:r p ~seed:(b + k + r) in
      t.reduction = r && t.k = k && observed t = expected)

let test_compiled_stream_equals_materialized () =
  let p = profile_of "twolf" 20_000 in
  let plan = Statsim.compile_plan ~reduction:4 p in
  let t = Synth.Generate.generate_of_plan plan ~seed:9 in
  let s = Synth.Generate.stream_of_plan plan ~seed:9 in
  let streamed = ref [] in
  let rec drain () =
    match Synth.Generate.next s with
    | Some i ->
      streamed := i :: !streamed;
      drain ()
    | None -> ()
  in
  drain ();
  check "bit-identical instructions" true
    (t.insts = Array.of_list (List.rev !streamed))

let test_empty_count_node () =
  (* a node whose branch/fetch/load denominators are all zero must
     compile (thresholds guard the zero denominators) and generate
     all-false events; the never-executed branch emits taken *)
  let sfg = Profile.Sfg.create ~k:0 in
  let key = Profile.Sfg.key_of_history [| 1 |] ~len:1 in
  let n = Profile.Sfg.find_or_add sfg ~key ~block:1 in
  n.Profile.Sfg.occurrences <- 4;
  n.Profile.Sfg.slots <-
    [|
      {
        Profile.Sfg.klass = Isa.Iclass.Load;
        nsrcs = 0;
        deps = [||];
        waw = Stats.Histogram.create ();
        war = Stats.Histogram.create ();
      };
      {
        Profile.Sfg.klass = Isa.Iclass.Int_branch;
        nsrcs = 0;
        deps = [||];
        waw = Stats.Histogram.create ();
        war = Stats.Histogram.create ();
      };
    |];
  let p =
    {
      Profile.Stat_profile.sfg;
      k = 0;
      cfg;
      instructions = 8;
      perfect_caches = true;
      perfect_bpred = true;
      branches = 0;
      mispredicts = 0;
    }
  in
  let plan = Statsim.compile_plan ~reduction:1 p in
  let t = Synth.Generate.generate_of_plan plan ~seed:13 in
  Alcotest.(check int) "trace length" 8 (Synth.Trace.length t);
  Array.iter
    (fun (i : Synth.Trace.inst) ->
      check "no cache events" false
        (i.l1i_miss || i.l2i_miss || i.itlb_miss || i.l1d_miss || i.l2d_miss
       || i.dtlb_miss);
      match i.branch with
      | Some b ->
        check "taken by default" true b.taken;
        check "never mispredicts" false (b.mispredict || b.redirect)
      | None -> ())
    t.insts

let test_plan_codec_roundtrip () =
  let p = profile_of "gcc" 25_000 in
  let plan = Statsim.compile_plan ~reduction:5 p in
  let encoded = Kernel.Plan.to_string plan in
  let decoded = Kernel.Plan.of_string encoded in
  Alcotest.(check string) "canonical re-encode" encoded
    (Kernel.Plan.to_string decoded);
  (* the decoded plan must sample bit-identically — the property the
     persistent store tier depends on *)
  let a = Synth.Generate.generate_of_plan plan ~seed:21 in
  let b = Synth.Generate.generate_of_plan decoded ~seed:21 in
  check "bit-identical traces" true (a.insts = b.insts)

let test_plan_codec_rejects () =
  let p = profile_of "gzip" 6_000 in
  let plan = Statsim.compile_plan ~reduction:2 p in
  let s = Kernel.Plan.to_string plan in
  let is_fail f = match f () with exception Failure _ -> true | _ -> false in
  check "garbage rejected" true
    (is_fail (fun () -> Kernel.Plan.of_string "not a plan"));
  check "truncation rejected" true
    (is_fail (fun () ->
         Kernel.Plan.of_string (String.sub s 0 (String.length s / 2))));
  check "version bump rejected" true
    (is_fail (fun () ->
         let lines = String.split_on_char '\n' s in
         Kernel.Plan.of_string
           (String.concat "\n" ("statsim-plan 9999" :: List.tl lines))))

(* --- event-driven pipeline equivalence --- *)

let test_skip_idle_equivalence () =
  let p = profile_of "gcc" 30_000 in
  let trace = Statsim.synthesize ~target_length:6_000 p ~seed:31 in
  List.iter
    (fun (label, c) ->
      let dense = Synth.Run.run ~skip_idle:false c trace in
      let evented = Synth.Run.run c trace in
      Alcotest.(check string)
        (label ^ ": identical metrics")
        (Uarch.Metrics.encode dense)
        (Uarch.Metrics.encode evented))
    [
      ("baseline", cfg);
      (* a tiny window plus in-order issue maximizes idle windows *)
      ("small window", Config.Machine.with_window cfg ~ruu:8 ~lsq:4);
      ("in-order", Config.Machine.in_order_variant cfg);
    ]

(* --- runner plan cache tier --- *)

let test_cache_plan_tier () =
  let root = Filename.temp_file "statsim_plan_store" "" in
  Sys.remove root;
  let t = Store.open_root root in
  Fun.protect
    ~finally:(fun () ->
      Store.clear t;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () ->
      let p = profile_of "twolf" 15_000 in
      let c1 = Runner.Cache.create ~store:t () in
      let pl1 = Runner.Cache.plan c1 ~reduction:4 p in
      let pl1' = Runner.Cache.plan c1 ~reduction:4 p in
      let s1 = Runner.Cache.stats c1 in
      Alcotest.(check int) "memo hit on repeat" 1 s1.Runner.Cache.plan_hits;
      Alcotest.(check int) "one miss" 1 s1.plan_misses;
      check "same physical plan" true (pl1 == pl1');
      (* a fresh process: new memo tables, same store root *)
      let t2 = Store.open_root (Store.root t) in
      let c2 = Runner.Cache.create ~store:t2 () in
      let pl2 = Runner.Cache.plan c2 ~reduction:4 p in
      let s2 = Runner.Cache.stats c2 in
      Alcotest.(check int) "store hit across processes" 1 s2.store_hits;
      Alcotest.(check int) "no store miss" 0 s2.store_misses;
      let a = Synth.Generate.generate_of_plan pl1 ~seed:19 in
      let b = Synth.Generate.generate_of_plan pl2 ~seed:19 in
      check "store-decoded plan is bit-identical" true (a.insts = b.insts);
      (* target_length resolves to a reduction factor before keying *)
      let pl3 = Runner.Cache.plan c1 ~target_length:5_000 p in
      Alcotest.(check int) "resolved R" 3 pl3.Kernel.Plan.reduction)

let suite =
  [
    Alcotest.test_case "threshold guards" `Quick test_threshold_guards;
    Alcotest.test_case "meta packing" `Quick test_meta_packing;
    QCheck_alcotest.to_alcotest prop_fenwick_matches_naive;
    Alcotest.test_case "fenwick bounds" `Quick test_fenwick_bounds;
    QCheck_alcotest.to_alcotest prop_walk_matches_closed_form;
    Alcotest.test_case "compiled stream equals materialized" `Quick
      test_compiled_stream_equals_materialized;
    Alcotest.test_case "empty-count node" `Quick test_empty_count_node;
    Alcotest.test_case "plan codec roundtrip" `Quick test_plan_codec_roundtrip;
    Alcotest.test_case "plan codec rejects" `Quick test_plan_codec_rejects;
    Alcotest.test_case "skip-idle equivalence" `Quick test_skip_idle_equivalence;
    Alcotest.test_case "cache plan tier" `Quick test_cache_plan_tier;
  ]
