(* serve-mixed: [statsim serve]'s daemon with 2 workers and a fresh
   store, driven closed-loop by 2 client connections. The seeded request
   mix is mostly warm [simulate] on cached keys, [estimate] (memo hits:
   the protocol and dispatch floor), cold [simulate] on new keys
   (profile + EDS + store writes) and first touches of keys pre-filled
   into the store during set-up (store reads). *)

open Common
module O = Perfbench.Outcome
module S = Perfbench.Spans
module Json = Telemetry.Json

let workers = 2
let clients = 2

(* The mix below is chosen, not observed: no recorded serve traffic
   exists. README.md ties each number to what it must exercise. *)
let warm_length = 100_000
let syn = 10_000
let warm_benches = [| "gcc"; "gzip"; "twolf"; "vortex" |]
let seeds_per_key = 8
let prefill_benches = [| "bzip2"; "crafty"; "eon"; "parser"; "perlbmk"; "vpr" |]
let prefill_length = 80_000
let cold = 24
let cold_length = 20_000

(* every cold and pre-filled first touch falls among the first [head]
   requests, so their counts are exact for a seed *)
let head = 600

type kind = Warm | Estimate | Cold | Prefill

let kind_name = function
  | Warm -> "simulate_warm"
  | Estimate -> "estimate"
  | Cold -> "simulate_cold"
  | Prefill -> "simulate_prefilled"

let sim_params ?(trace = false) ~bench ~length ~seed () =
  Json.Obj
    ([
       ("bench", Json.Str bench);
       ("length", Json.Num (float_of_int length));
       ("synthetic", Json.Num (float_of_int syn));
       ("seed", Json.Num (float_of_int seed));
     ]
    @ if trace then [ ("trace", Json.Bool true) ] else [])

let est_params ?(trace = false) ~bench () =
  Json.Obj
    ([
       ("bench", Json.Str bench);
       ("length", Json.Num (float_of_int warm_length));
       ("synthetic", Json.Num (float_of_int syn));
     ]
    @ if trace then [ ("trace", Json.Bool true) ] else [])

(* The request sequence of a seed: request [i]'s kind, op and params. *)
module Mix = struct
  type t = { seed : int; slots : kind array  (** kinds of the head *) }

  let make seed =
    let st = Random.State.make [| 0x5e7e; seed |] in
    let slots =
      Array.init head (fun _ ->
          if Random.State.float st 1.0 < 0.36 then Estimate else Warm)
    in
    (* distinct seeded positions for the cold and pre-filled requests *)
    let free = Array.init head Fun.id in
    for i = head - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = free.(i) in
      free.(i) <- free.(j);
      free.(j) <- t
    done;
    for c = 0 to cold - 1 do slots.(free.(c)) <- Cold done;
    for p = 0 to Array.length prefill_benches - 1 do
      slots.(free.(cold + p)) <- Prefill
    done;
    { seed; slots }

  let ordinal slots i k =
    let n = ref 0 in
    for j = 0 to i - 1 do if slots.(j) = k then incr n done;
    !n

  let rand t i = Random.State.make [| 0x3e9; t.seed; i |]

  let kind t i =
    if i < head then t.slots.(i)
    else if Random.State.float (rand t i) 1.0 < 0.36 then Estimate
    else Warm

  let cold_key t c =
    ( Workload.Suite.names |> Array.of_list |> fun a -> a.(c mod Array.length a),
      cold_length + (10 * (abs t.seed mod 97)) + (1000 * c) )

  (* (kind, op, params) of request [i] *)
  let request ?(trace = false) t i =
    let st = rand t i in
    let warm_bench = warm_benches.(Random.State.int st (Array.length warm_benches)) in
    let warm_seed = master_seed t.seed + Random.State.int st seeds_per_key in
    match kind t i with
    | Warm ->
      (Warm, "simulate", sim_params ~trace ~bench:warm_bench ~length:warm_length ~seed:warm_seed ())
    | Estimate -> (Estimate, "estimate", est_params ~trace ~bench:warm_bench ())
    | Cold ->
      let bench, length = cold_key t (ordinal t.slots i Cold) in
      (Cold, "simulate", sim_params ~trace ~bench ~length ~seed:(master_seed t.seed) ())
    | Prefill ->
      let bench = prefill_benches.(ordinal t.slots i Prefill) in
      ( Prefill,
        "simulate",
        sim_params ~trace ~bench ~length:prefill_length ~seed:(master_seed t.seed) () )
end

(* --- the daemon process --- *)

let snapshot_json () =
  Printf.sprintf "{\"words\": %.17g}" (Perfbench.Proc.process_words ())

let write_atomic path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc s;
  close_out oc;
  Sys.rename tmp path

(* [main.exe daemon SOCKET STORE STATS]: [Server.Daemon] exactly as
   [statsim serve --workers 2 --cache-dir STORE --no-obs] runs it, plus
   allocation snapshots on SIGUSR1 (to STATS.N) and the daemon counters
   at exit (to STATS.final). *)
let daemon_main ~socket ~store ~stats =
  Telemetry.set_enabled false;
  let stop = Atomic.make false and snap = Atomic.make 0 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.incr snap));
  let cfg =
    {
      (Server.Daemon.default_config ~socket_path:socket) with
      Server.Daemon.workers;
      cache_dir = Some store;
      obs = false;
    }
  in
  let t = Server.Daemon.start cfg in
  let taken = ref 0 and parent = Unix.getppid () in
  (* a daemon whose benchmark process died stops too *)
  while not (Atomic.get stop || Unix.getppid () <> parent) do
    (try Unix.sleepf 0.005 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    while !taken < Atomic.get snap do
      incr taken;
      write_atomic (Printf.sprintf "%s.%d" stats !taken) (snapshot_json ())
    done
  done;
  Server.Daemon.stop t;
  let s = Server.Daemon.stats t in
  write_atomic (stats ^ ".final")
    (Printf.sprintf
       "{\"requests\": %d, \"shed\": %d, \"deadline_exceeded\": %d, \
        \"cancelled\": %d, \"malformed\": %d}"
       s.requests s.shed s.deadline_exceeded s.cancelled s.malformed)

(* --- the client side --- *)

let read_json path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let num j k =
  match Option.bind (Json.member k j) Json.to_num with
  | Some v -> v
  | None -> failwith ("missing number " ^ k)

let wait_for ?(timeout = 60.0) what ready =
  let t0 = now () in
  let rec go () =
    if ready () then ()
    else if now () -. t0 > timeout then failwith ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

type daemon = {
  pid : int;
  stats : string;
  mutable snaps : int;
  mutable conns : Server.Client.t list;
}

let call c ~op params =
  match Server.Client.call c ~op params with
  | Ok { Server.Protocol.outcome = Ok r; _ } -> Ok r
  | Ok { Server.Protocol.outcome = Error (code, msg); _ } ->
    Error (Server.Protocol.code_name code ^ ": " ^ msg)
  | Error e -> Error e

let call_exn c ~op params =
  match call c ~op params with Ok r -> r | Error e -> failwith (op ^ ": " ^ e)

let snapshot d =
  d.snaps <- d.snaps + 1;
  let path = Printf.sprintf "%s.%d" d.stats d.snaps in
  Unix.kill d.pid Sys.sigusr1;
  wait_for "daemon snapshot" (fun () -> Sys.file_exists path);
  read_json path

let stop_daemon d =
  List.iter Server.Client.close d.conns;
  d.conns <- [];
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* In-process env over a store directory: the pre-fill writer and the
   reference every reply is compared with. *)
let env ?cache_dir () =
  {
    Server.Ops.cache =
      Runner.Cache.create ?store:(Option.map Store.open_root cache_dir) ();
    jobs = 1;
    check = (fun () -> ());
    trace = None;
  }

let dispatch_string e ~op params =
  match Server.Ops.dispatch e ~op params with
  | Ok r -> Json.to_string r
  | Error msg -> "error: " ^ msg

let without_trace = function
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "trace") kvs)
  | j -> j

(* Set-up: pre-fill the store, start the daemon, warm its memo tier on
   the warm keys, connect the clients. *)
let start_daemon ~root ~seed n =
  let dir = Filename.concat root (Printf.sprintf "d%d" n) in
  Perfbench.Proc.mkdir_p dir;
  let store = Filename.concat dir "store" in
  let pre = env ~cache_dir:store () in
  Array.iter
    (fun bench ->
      ignore
        (dispatch_string pre ~op:"simulate"
           (sim_params ~bench ~length:prefill_length ~seed:(master_seed seed) ())))
    prefill_benches;
  let socket = Filename.concat dir "d.sock" and stats = Filename.concat dir "stats" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "daemon"; socket; store; stats |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; stats; snaps = 0; conns = [] } in
  (try
     wait_for "daemon socket" (fun () ->
         match Server.Client.connect ~socket with
         | c ->
           Server.Client.close c;
           true
         | exception Unix.Unix_error _ -> false);
     let c = Server.Client.connect ~socket in
     d.conns <- [ c ];
     Array.iter
       (fun bench ->
         ignore (call_exn c ~op:"simulate" (sim_params ~bench ~length:warm_length ~seed:(master_seed seed) ()));
         ignore (call_exn c ~op:"estimate" (est_params ~bench ())))
       warm_benches;
     d.conns <- d.conns @ List.init (clients - 1) (fun _ -> Server.Client.connect ~socket)
   with e ->
     ignore (stop_daemon d);
     raise e);
  d

type sample = {
  idx : int;
  kind : kind;
  op : string;
  params : Json.t;
  latency : float;
  reply : (Json.t, string) result;
}

(* Closed loop: each client sends the next request of the shared
   sequence as soon as its previous reply arrives. *)
let drive d mix ~trace ~first ~seconds =
  let next = Atomic.make first in
  let deadline = now () +. seconds in
  let results = Array.make clients [] in
  let client k c () =
    let acc = ref [] in
    while now () < deadline do
      let i = Atomic.fetch_and_add next 1 in
      let kind, op, params = Mix.request ~trace mix i in
      let t0 = now () in
      let reply = call c ~op params in
      acc := { idx = i; kind; op; params; latency = now () -. t0; reply } :: !acc
    done;
    results.(k) <- !acc
  in
  let t0 = now () in
  let threads = List.mapi (fun k c -> Thread.create (client k c) ()) d.conns in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let samples =
    List.sort (fun a b -> compare a.idx b.idx) (List.concat (Array.to_list results))
  in
  (samples, wall, Atomic.get next)

(* Instructions a request asked the daemon to simulate: the synthetic
   trace, plus the EDS reference for a cold key. *)
let requested_inst s =
  match s.kind with
  | Warm | Prefill -> syn
  | Estimate -> 0
  | Cold -> (
    match Json.member "length" s.params with
    | Some (Json.Num l) -> int_of_float l + syn
    | _ -> syn)

let cache_stats d = call_exn (List.hd d.conns) ~op:"cache-stats" (Json.Obj [])

(* Byte-identity of every reply with in-process [Ops.dispatch] on the
   same params; identical params are dispatched once. *)
let check_replies out samples =
  let e = env () in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.reply with
      | Error msg -> O.check out (Printf.sprintf "request %d (%s) ok: %s" s.idx s.op msg) false
      | Ok r ->
        let params = without_trace s.params in
        let key = s.op ^ Json.to_string params in
        let want =
          match Hashtbl.find_opt expected key with
          | Some w -> w
          | None ->
            let w = dispatch_string e ~op:s.op params in
            Hashtbl.replace expected key w;
            w
        in
        O.check out
          (Printf.sprintf "request %d (%s) equals in-process dispatch" s.idx s.op)
          (Json.to_string (without_trace r) = want))
    samples;
  (e, expected)

(* IPC and EDP error of the warm keys at the Fig 6 synthetic seed, from
   the simulate report. *)
let warm_errors e =
  let field out name =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | n :: eds :: ss :: _ when n = name -> Some (float_of_string eds, float_of_string ss)
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  let errs =
    Array.to_list
      (Array.map
         (fun bench ->
           match Server.Ops.dispatch e ~op:"simulate" (sim_params ~bench ~length:warm_length ~seed:fig6_seed ()) with
           | Ok r -> (
             let out = Server.Ops.output r in
             match (field out "IPC", field out "EDP") with
             | Some (ie, is), Some (ee, es) ->
               (rel_err ~reference:ie ~predicted:is, rel_err ~reference:ee ~predicted:es)
             | _ -> (nan, nan))
           | Error _ -> (nan, nan))
         warm_benches)
  in
  (Stats.Summary.mean (List.map fst errs), Stats.Summary.mean (List.map snd errs))

(* The golden digest: the warm keys' replies for the seed. *)
let warm_digest e ~seed =
  Perfbench.Golden.digest
    (Array.to_list
       (Array.map
          (fun bench ->
            dispatch_string e ~op:"simulate"
              (sim_params ~bench ~length:warm_length ~seed:(master_seed seed) ()))
          warm_benches))

let golden_digest ~seed = warm_digest (env ()) ~seed

let ms x = 1000.0 *. x
let lat_of k samples = List.filter_map (fun s -> if s.kind = k then Some s.latency else None) samples

let run_setups ~root ~seed =
  let times = ref [] and kept = ref None in
  for n = 1 to 3 do
    let d, dt = time (fun () -> start_daemon ~root ~seed n) in
    times := dt :: !times;
    if n < 3 then ignore (stop_daemon d) else kept := Some d
  done;
  (Option.get !kept, median !times)

let finish_daemon out d =
  let rss = Perfbench.Proc.peak_rss_mb ~pid:(string_of_int d.pid) () in
  let clean = stop_daemon d in
  O.check out "daemon drained and exited 0" clean;
  let final = read_json (d.stats ^ ".final") in
  List.iter
    (fun k -> O.check out (Printf.sprintf "daemon %s = 0" k) (num final k = 0.0))
    [ "shed"; "malformed"; "deadline_exceeded" ];
  (rss, final)

let stat_delta a b k = num b k -. num a k

let with_root f =
  let root = Printf.sprintf ".perfbench/serve-%d" (Unix.getpid ()) in
  Perfbench.Proc.mkdir_p root;
  Fun.protect ~finally:(fun () -> Perfbench.Proc.rm_rf root) (fun () -> f root)

let check_counts out issued =
  O.check out
    (Printf.sprintf "at least %d requests issued (%d)" head issued)
    (issued >= head)

let check_cold_computes out delta =
  O.check out "one profile and one EDS compute per cold request"
    (delta "profile_computes" = float_of_int cold
    && delta "reference_computes" = float_of_int cold)

let untraced (a : args) out =
  with_root @@ fun root ->
  let mix = Mix.make a.seed in
  let d, setup_s = run_setups ~root ~seed:a.seed in
  O.set out "setup_s" setup_s;
  let rss, samples, wall, stats0, stats1, w0, w1 =
    Fun.protect
      ~finally:(fun () -> if d.conns <> [] then ignore (stop_daemon d))
      (fun () ->
        let stats0 = cache_stats d in
        let w0 = num (snapshot d) "words" in
        let samples, wall, issued = drive d mix ~trace:false ~first:0 ~seconds:a.seconds in
        let w1 = num (snapshot d) "words" in
        let stats1 = cache_stats d in
        check_counts out issued;
        let rss, _ = finish_daemon out d in
        (rss, samples, wall, stats0, stats1, w0, w1))
  in
  let e, _ = check_replies out samples in
  O.check out "no quarantined store entries" (num stats1 "store_quarantined" = 0.0);
  O.check out "store served the pre-filled keys"
    (stat_delta stats0 stats1 "store_hits" > 0.0);
  check_cold_computes out (stat_delta stats0 stats1);
  Option.iter (O.set out "peak_rss_mb") rss;
  let n = float_of_int (List.length samples) in
  let sims = List.filter (fun s -> s.op = "simulate") samples in
  let inst = float_of_int (isum requested_inst samples) in
  O.set out "sim_ips" (inst /. wall);
  O.set out "points_per_s" (float_of_int (List.length sims) /. wall);
  O.set out "requests_per_s" (n /. wall);
  O.set out "latency_p50_ms" (ms (median (List.map (fun s -> s.latency) samples)));
  O.set out "alloc_words_per_inst" ((w1 -. w0) /. inst);
  let ipc, edp = warm_errors e in
  O.set out "ipc_err_pct" ipc;
  O.set out "edp_err_pct" edp;
  check_golden out ~workload:"serve-mixed" ~seed:a.seed (warm_digest e ~seed:a.seed);
  List.iter
    (fun k ->
      let l = lat_of k samples in
      if l <> [] then
        log "perfbench: %-18s %5d requests, median %.2f ms" (kind_name k) (List.length l)
          (ms (median l)))
    [ Warm; Estimate; Cold; Prefill ];
  log "perfbench: serve-mixed %d requests in %.2fs, setup %.4fs" (List.length samples) wall
    setup_s

(* --- traced run --- *)

(* A reply's span tree as spans of request [req]. *)
let spans_of_reply spans ~req (trace : Json.t) =
  let rec walk ~parent ~base node =
    let name = Option.value (Option.bind (Json.member "name" node) Json.to_str) ~default:"?" in
    let start = base + int_of_float (num node "start_ns") in
    let stop = start + int_of_float (num node "dur_ns") in
    let id = S.record spans ~parent ~req name ~start_ns:start ~stop_ns:stop in
    match Json.member "children" node with
    | Some (Json.Arr kids) -> List.iter (walk ~parent:id ~base) kids
    | _ -> ()
  in
  match Json.member "root" trace with
  | Some root -> walk ~parent:(-1) ~base:0 root
  | None -> ()

let tail_or_zero out name xs q =
  match Perfbench.Quant.tail xs q with
  | Some v -> O.set out name (ms v)
  | None ->
    log "perfbench: %s not measured: %d samples, fewer than %d beyond" name
      (List.length xs) Perfbench.Quant.min_beyond;
    O.set out name 0.0

let traced (a : args) out ~spans_path =
  with_root @@ fun root ->
  let mix = Mix.make a.seed in
  let d, _ = run_setups ~root ~seed:a.seed in
  let samples, wall, untraced_samples, stats0, stats1, final =
    Fun.protect
      ~finally:(fun () -> if d.conns <> [] then ignore (stop_daemon d))
      (fun () ->
        let stats0 = cache_stats d in
        let samples, wall, issued = drive d mix ~trace:true ~first:0 ~seconds:a.seconds in
        let stats1 = cache_stats d in
        check_counts out issued;
        (* a shorter untraced phase: the tracing overhead baseline *)
        let untraced_samples, _, _ =
          drive d mix ~trace:false ~first:issued ~seconds:(Float.max 2.0 (a.seconds /. 3.0))
        in
        let _, final = finish_daemon out d in
        (samples, wall, untraced_samples, stats0, stats1, final))
  in
  let e, _ = check_replies out (samples @ untraced_samples) in
  check_golden out ~workload:"serve-mixed" ~seed:a.seed (warm_digest e ~seed:a.seed);
  let spans = S.create () in
  List.iter
    (fun s ->
      match s.reply with
      | Ok r -> (
        match Json.member "trace" r with
        | Some tr -> spans_of_reply spans ~req:(string_of_int s.idx) tr
        | None -> O.check out "traced reply carries its trace" false)
      | Error _ -> ())
    samples;
  let all = S.spans spans in
  let by = S.self_by_name all in
  let self = S.self_of by in
  let roots = List.filter (fun (s : S.span) -> s.parent < 0) all in
  let total = fsum S.dur_s roots in
  let queue = S.total_dur all "queue_wait" in
  O.set out "uarch.eds.share" (self "cache.reference" /. total);
  O.set out "synth.pipeline.share" (self "simulate.run" /. total);
  let layer_self = fsum (fun (n, v) -> if n = "request" then 0.0 else v) by in
  check_additivity out ~layer_self ~driver_self:(self "request") ~domain_wall:total ~parts:by;
  O.set out "runner.pool.busy_frac" ((total -. queue) /. (wall *. float_of_int workers));
  let lat k = lat_of k samples in
  O.set out "server.simulate_warm.p50_ms" (ms (median (lat Warm)));
  tail_or_zero out "server.simulate_warm.p99_ms" (lat Warm) 0.99;
  O.set out "server.estimate.p50_ms" (ms (median (lat Estimate)));
  tail_or_zero out "server.estimate.p99_ms" (lat Estimate) 0.99;
  O.set out "server.simulate_cold.p50_ms" (ms (median (lat Cold)));
  tail_or_zero out "server.simulate_cold.p90_ms" (lat Cold) 0.90;
  let qw = List.filter_map (fun (s : S.span) -> if s.name = "queue_wait" then Some (S.dur_s s) else None) all in
  O.set out "server.queue_wait.p50_ms" (ms (median qw));
  tail_or_zero out "server.queue_wait.p99_ms" qw 0.99;
  tail_or_zero out "server.latency_p99_ms" (List.map (fun s -> s.latency) samples) 0.99;
  (* the protocol and dispatch floor: estimate round trip minus the
     same op dispatched in-process on a warm cache *)
  let est_p = est_params ~bench:warm_benches.(0) () in
  ignore (Server.Ops.dispatch e ~op:"estimate" est_p);
  let inproc = List.init 200 (fun _ -> snd (time (fun () -> Server.Ops.dispatch e ~op:"estimate" est_p))) in
  let untraced_est = lat_of Estimate untraced_samples in
  O.set out "server.floor_ms" (ms (median untraced_est -. median inproc));
  O.set out "server.shed" (num final "shed");
  O.set out "server.deadline_exceeded" (num final "deadline_exceeded");
  O.set out "server.malformed" (num final "malformed");
  O.set out "trace.overhead_frac"
    ((median (lat Warm) /. median (lat_of Warm untraced_samples)) -. 1.0);
  let delta k = stat_delta stats0 stats1 k in
  let ratio h m = if h +. m = 0.0 then 0.0 else h /. (h +. m) in
  List.iter
    (fun a ->
      O.set out (Printf.sprintf "runner.cache.%s.hit_ratio" a)
        (ratio (delta (a ^ "_hits")) (delta (a ^ "_misses"))))
    [ "profile"; "plan"; "reference"; "estimate" ];
  List.iter
    (fun a -> O.set out (Printf.sprintf "runner.cache.%s_computes" a) (delta (a ^ "_computes")))
    [ "profile"; "plan"; "reference" ];
  O.set out "store.hits" (delta "store_hits");
  O.set out "store.misses" (delta "store_misses");
  O.set out "store.bytes_written" (delta "store_bytes_written");
  O.set out "store.quarantined" (num stats1 "store_quarantined");
  O.check out "no quarantined store entries" (num stats1 "store_quarantined" = 0.0);
  check_cold_computes out delta;
  let p = (Runner.Cache.profile e.Server.Ops.cache cfg
             ~stream_key:(Printf.sprintf "int:%s:o0:n%d" warm_benches.(0) warm_length)
             (fun () -> Workload.Suite.stream (Workload.Suite.find warm_benches.(0)) ~length:warm_length)) in
  let _, est = time (fun () -> Runner.Cache.estimate (Runner.Cache.create ()) ~target_length:syn cfg p) in
  O.set out "analytical.estimate_s" est;
  not_measured out
    ([ "workload.ips"; "workload.words_per_inst"; "profile.self_s"; "profile.self_ips";
       "profile.words_per_inst"; "profile.sfg_nodes"; "kernel.compile_s"; "kernel.plan_nodes";
       "kernel.plan_slots"; "synth.generate.ips"; "synth.generate.words_per_inst";
       "synth.pipeline.ips"; "synth.pipeline.ns_per_cycle"; "synth.pipeline.words_per_inst";
       "uarch.eds.self_ips"; "uarch.eds.ns_per_cycle"; "uarch.eds.words_per_inst";
       "speedup.synth_vs_eds"; "dse.driver.self_s"; "dse.frontier_points" ]
    @ prefixed "model.");
  write_spans ~path:spans_path all;
  log "perfbench: serve-mixed traced %d requests in %.2fs; eds share %.3f" (List.length samples)
    wall (self "cache.reference" /. total)
