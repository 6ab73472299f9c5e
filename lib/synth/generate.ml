(* The walk executes a Kernel.Plan — the reduced SFG lowered to flat
   arrays, alias samplers and fixed-point thresholds — so the
   per-instruction path does no hashing, float division or CDF scans. *)

(* Stage telemetry: the whole generation pass, the plan compilation
   within it, and the synthetic instructions produced. *)
let span_generate = Telemetry.span "synth.generate"
let span_compile = Telemetry.span "synth.compile"
let c_instructions = Telemetry.counter "synth.instructions"

(* The paper's dependency retry rule re-draws a distance up to 1,000
   times and then silently drops the dependency; this counter makes the
   drop path visible (a high rate means the profile's distance
   distributions are dominated by destination-less producers). *)
let c_dep_squashed = Telemetry.counter "synth.dep_squashed"

(* Distribution telemetry for the fidelity observatory: the dependency
   distances actually emitted (after the retry/squash rule, so what the
   simulator will see rather than what the profile stored) and the
   number of instructions between consecutive fetch-redirecting
   branches, which bounds the synthetic front-end's useful run length. *)
let h_dep_distance = Telemetry.histogram "synth.dep_distance"
let h_redirect_run = Telemetry.histogram "synth.redirect_run"

let dep_retries = 1_000

(* Where the random walk stands between two [next] calls, unboxed into
   three mutable ints so the per-instruction path allocates nothing
   beyond the emitted record — a variant carrying the node and slot
   would cost a 3-word block per instruction. [ph_after] means the
   block [node] has been fully emitted and its outgoing edge has not yet
   been drawn: deferring the draw to the next pull keeps the RNG call
   sequence identical to the materialized path, since there is a single
   consumer of the stream's generator. While emitting, [slot] is the
   next absolute slot index. *)
let ph_start = 0
let ph_emitting = 1
let ph_after = 2
let ph_finished = 3

type stream = {
  plan : Kernel.Plan.t;
  rng : Prng.t;
  remaining : int array;  (* per dense node index *)
  start_tree : Kernel.Fenwick.t;  (* remaining counts, for start picks *)
  live : int;  (* total block visits the walk owes *)
  (* recent destination-producing status, for the dependency retry rule *)
  recent_has_dest : bool array;
  mutable pos : int;
  (* [pos mod (dep_cap + 1)]: the ring write cursor, kept incrementally
     so the per-instruction path never pays an integer division *)
  mutable ring : int;
  mutable redirect_run : int;
  mutable visits : int;
  mutable phase : int;
  mutable node : int;
  mutable slot : int;
  seed : int;
}

let stream_of_plan (plan : Kernel.Plan.t) ~seed =
  let remaining = Array.copy plan.node_occ in
  {
    plan;
    rng = Prng.create ~seed;
    remaining;
    start_tree = Kernel.Fenwick.create remaining;
    live = Array.fold_left ( + ) 0 remaining;
    recent_has_dest = Array.make (Profile.Sfg.dep_cap + 1) true;
    pos = 0;
    ring = 0;
    redirect_run = 0;
    visits = 0;
    phase = ph_start;
    node = -1;
    slot = 0;
    seed;
  }

let stream ?reduction ?target_length (p : Profile.Stat_profile.t) ~seed =
  let tel = Telemetry.start () in
  let plan = Kernel.Compile.plan ?reduction ?target_length p in
  Telemetry.stop span_compile tel;
  stream_of_plan plan ~seed

let stream_reduction s = s.plan.reduction
let stream_k s = s.plan.k
let stream_seed s = s.seed

let producer_has_dest t delta =
  delta > t.pos
  ||
  let len = Array.length t.recent_has_dest in
  if delta < len then
    (* the common case — profiled distances never exceed dep_cap, so the
       cursor-relative index stays within one wrap of the ring and a
       conditional add replaces the division *)
    let i = t.ring - delta in
    Array.unsafe_get t.recent_has_dest (if i < 0 then i + len else i)
  else t.recent_has_dest.((t.pos - delta) mod len)

(* top-level so each dependency draw costs calls, not a fresh closure *)
let rec try_draw t sampler n =
  if n = 0 then begin
    (* squash the dependency, per the paper *)
    Telemetry.incr c_dep_squashed;
    0
  end
  else
    let delta = Stats.Alias.sample sampler t.rng in
    if producer_has_dest t delta then delta else try_draw t sampler (n - 1)

let sample_dep t sampler =
  if Stats.Alias.is_empty sampler then 0
  else begin
    let delta = try_draw t sampler dep_retries in
    Telemetry.observe h_dep_distance delta;
    delta
  end

(* [emit] is the per-instruction floor of the walk, so it reads the
   plan with [unsafe_get]: every index is established by construction —
   [ni] and [si] come from the walk over [node_slot_off], and
   [Plan.of_string]/[Compile.plan] validate the per-slot offsets against
   the array lengths they index. *)
let emit t ni si =
  let p = t.plan in
  let rng = t.rng in
  let sr thr =
    thr > 0 && (thr >= Kernel.Plan.two32 || Prng.bits rng < thr)
  in
  let meta = Array.unsafe_get p.Kernel.Plan.slot_meta si in
  let d0 = Array.unsafe_get p.slot_dep_off si in
  let nd = Kernel.Plan.meta_ndeps meta in
  (* operand order, then waw/war when present. The common arities build
     the array from a literal: [Array.make] with a runtime length is an
     out-of-line runtime call, and this allocation happens once per
     instruction. The lets pin the draw order — array literals evaluate
     right-to-left, which would flip it. *)
  let deps =
    if nd = 0 then [||]
    else if nd = 1 then [| sample_dep t (Array.unsafe_get p.slot_deps d0) |]
    else if nd = 2 then begin
      let a = sample_dep t (Array.unsafe_get p.slot_deps d0) in
      let b = sample_dep t (Array.unsafe_get p.slot_deps (d0 + 1)) in
      [| a; b |]
    end
    else begin
      let deps = Array.make nd 0 in
      for j = 0 to nd - 1 do
        Array.unsafe_set deps j
          (sample_dep t (Array.unsafe_get p.slot_deps (d0 + j)))
      done;
      deps
    end
  in
  let l1i = sr (Array.unsafe_get p.thr_l1i ni) in
  let l2i = l1i && sr (Array.unsafe_get p.thr_l2i ni) in
  let itlb = sr (Array.unsafe_get p.thr_itlb ni) in
  let is_load = Kernel.Plan.meta_is_load meta in
  let l1d = is_load && sr (Array.unsafe_get p.thr_l1d ni) in
  let l2d = l1d && sr (Array.unsafe_get p.thr_l2d ni) in
  let dtlb = is_load && sr (Array.unsafe_get p.thr_dtlb ni) in
  let branch =
    if not (Kernel.Plan.meta_is_branch meta) then None
    else begin
      let taken = sr (Array.unsafe_get p.thr_taken ni) in
      let thr_misred = Array.unsafe_get p.thr_misred ni in
      let mispredict, redirect =
        (* one raw draw classifies the branch outcome *)
        if thr_misred <= 0 then (false, false)
        else begin
          let u = Prng.bits rng in
          let mispredict = u < Array.unsafe_get p.thr_mis ni in
          (mispredict, (not mispredict) && u < thr_misred)
        end
      in
      Some { Trace.taken; mispredict; redirect }
    end
  in
  let i =
    {
      Trace.klass = Kernel.Plan.meta_klass meta;
      deps;
      l1i_miss = l1i;
      l2i_miss = l2i;
      itlb_miss = itlb;
      l1d_miss = l1d;
      l2d_miss = l2d;
      dtlb_miss = dtlb;
      block = Array.unsafe_get p.node_block ni;
      branch;
    }
  in
  Array.unsafe_set t.recent_has_dest t.ring (Kernel.Plan.meta_has_dest meta);
  t.pos <- t.pos + 1;
  t.ring <-
    (let r = t.ring + 1 in
     if r = Array.length t.recent_has_dest then 0 else r);
  (* synth.instructions is charged by the caller: per pull in [next],
     batched in the materializing fill loop *)
  (match branch with
  | Some b when b.Trace.redirect ->
    Telemetry.observe h_redirect_run t.redirect_run;
    t.redirect_run <- 0
  | _ -> t.redirect_run <- t.redirect_run + 1);
  i

(* step 1: start-node selection by cumulative occurrence distribution,
   against the Fenwick tree over remaining counts in O(log n) *)
let pick_start t =
  let total = Kernel.Fenwick.total t.start_tree in
  if total = 0 then None
  else
    let x = 1 + Prng.int t.rng total in
    Some (Kernel.Fenwick.find t.start_tree x)

let start_block t ni =
  t.remaining.(ni) <- t.remaining.(ni) - 1;
  Kernel.Fenwick.add t.start_tree ni (-1);
  t.visits <- t.visits + 1;
  t.phase <- ph_emitting;
  t.node <- ni;
  t.slot <- t.plan.node_slot_off.(ni)

let restart t =
  if t.visits >= t.live then t.phase <- ph_finished
  else
    match pick_start t with
    | Some ni -> start_block t ni
    | None -> t.phase <- ph_finished

(* step 9: follow an outgoing edge by transition probability, via the
   node's alias table over successor indices *)
let advance t ni =
  let edges = t.plan.edges.(ni) in
  if (not t.plan.use_edges) || Stats.Alias.is_empty edges then restart t
  else begin
    let succ = Stats.Alias.sample edges t.rng in
    if t.remaining.(succ) > 0 then start_block t succ else restart t
  end

let rec next t =
  if t.phase = ph_emitting then begin
    let ni = t.node in
    let si = t.slot in
    if si >= t.plan.node_slot_off.(ni + 1) then begin
      t.phase <- ph_after;
      next t
    end
    else begin
      t.slot <- si + 1;
      let inst = emit t ni si in
      Telemetry.incr c_instructions;
      Some inst
    end
  end
  else if t.phase = ph_after then begin
    advance t t.node;
    next t
  end
  else if t.phase = ph_start then begin
    restart t;
    next t
  end
  else None

(* Instructions the stream will still emit: slots of every remaining
   visit plus the unemitted slots of the visit in flight. Exact, so the
   materializer can fill a right-sized array. *)
let expected t =
  let p = t.plan in
  let n = ref 0 in
  Array.iteri
    (fun ni rem ->
      n := !n + (rem * (p.Kernel.Plan.node_slot_off.(ni + 1) - p.node_slot_off.(ni))))
    t.remaining;
  if t.phase = ph_emitting then n := !n + (p.node_slot_off.(t.node + 1) - t.slot);
  !n

let drain t =
  let insts =
    (* the walk's length is known up front, so the trace fills a
       right-sized array *)
    let n = expected t in
    match next t with
    | None -> [||]
    | Some first ->
      (* drive the phase machine directly: per instruction this costs
         one [emit] and an array write, with no option wrapper or
         per-pull dispatch, and the instruction counter is settled once
         at the end *)
      let out = Array.make n first in
      let i = ref 1 in
      while t.phase <> ph_finished do
        if t.phase = ph_emitting then begin
          let ni = t.node in
          let s1 = t.plan.node_slot_off.(ni + 1) in
          let si = ref t.slot in
          while !si < s1 do
            (* in bounds because [expected] counts exactly the slots
               this loop will emit (asserted below) *)
            Array.unsafe_set out !i (emit t ni !si);
            incr i;
            incr si
          done;
          t.slot <- s1;
          t.phase <- ph_after
        end
        else advance t t.node
      done;
      assert (!i = n);
      Telemetry.add c_instructions (n - 1);
      out
  in
  { Trace.insts; k = stream_k t; reduction = stream_reduction t; seed = t.seed }

let generate ?reduction ?target_length (p : Profile.Stat_profile.t) ~seed =
  let tel = Telemetry.start () in
  let trace = drain (stream ?reduction ?target_length p ~seed) in
  Telemetry.stop span_generate tel;
  trace

let generate_of_plan plan ~seed =
  let tel = Telemetry.start () in
  let trace = drain (stream_of_plan plan ~seed) in
  Telemetry.stop span_generate tel;
  trace
