(* statsim's benchmark: see perfbench/README.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
     runs one workload and prints, as its last stdout line, the JSON
     result: end-to-end metrics untraced, per-layer metrics traced.
   main.exe manifest         prints BENCHMARK.json for the declared metrics
   main.exe golden W SEEDS.. prints golden-digest lines for workload W
   main.exe daemon ...       the serve-mixed daemon process *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload accuracy-study|design-sweep|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some seed -> go { acc with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 -> go { acc with seconds } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | [] -> acc
    | _ -> usage ()
  in
  go { workload = ""; seed = 0; seconds = 10.0; trace = false } argv

let workload_fns = function
  | "accuracy-study" -> Some (Accuracy.untraced, Accuracy.traced)
  | "design-sweep" -> Some (Sweep.untraced, Sweep.traced)
  | "serve-mixed" -> Some (Serve.untraced, Serve.traced)
  | _ -> None

let digest_of workload seed =
  match workload with
  | "accuracy-study" -> Accuracy.digest (Accuracy.pass (Accuracy.seeded seed))
  | "accuracy-study.fig6" -> Accuracy.digest (Accuracy.pass Accuracy.fig6)
  | "design-sweep" -> Sweep.golden_digest ~seed
  | "serve-mixed" -> Serve.golden_digest ~seed
  | w -> failwith ("unknown workload " ^ w)

let bench args =
  (* timed runs measure the program as users run it: telemetry off,
     default GC settings *)
  Telemetry.set_enabled false;
  (* a daemon that dies mid-run must fail requests, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let untraced, traced =
    match workload_fns args.workload with Some f -> f | None -> usage ()
  in
  log "perfbench: workload %s seed %d seconds %g trace %b" args.workload args.seed
    args.seconds args.trace;
  let out = Perfbench.Outcome.create () in
  let ok =
    try
      if args.trace then
        traced args out
          ~spans_path:(Printf.sprintf ".perfbench/trace-%s.jsonl" args.workload)
      else untraced args out;
      true
    with e ->
      Perfbench.Outcome.check out ("run raised " ^ Printexc.to_string e) false;
      false
  in
  print_endline (Perfbench.Outcome.to_json out ~trace:args.trace);
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "daemon"; socket; store; stats ] -> Serve.daemon_main ~socket ~store ~stats
  | [ "manifest" ] -> print_string (Perfbench.Decl.manifest ())
  | "golden" :: workload :: seeds ->
    List.iter
      (fun s ->
        let seed = int_of_string s in
        Printf.printf "%s %d %s\n%!" workload seed (digest_of workload seed))
      seeds
  | argv -> bench (parse argv)
