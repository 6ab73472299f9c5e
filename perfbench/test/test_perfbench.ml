(* Self-tests of the benchmark's own arithmetic and declarations. *)

open Perfbench

let name_ok = Decl.valid_name

let test_names () =
  List.iter
    (fun (m : Decl.metric) ->
      Alcotest.(check bool) ("metric name " ^ m.name) true (name_ok m.name))
    Decl.all;
  List.iter
    (fun (w, _) -> Alcotest.(check bool) ("workload name " ^ w) true (name_ok w))
    Decl.workloads;
  let names = List.map (fun (m : Decl.metric) -> m.name) Decl.all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let json_of_string s =
  match Telemetry.Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad JSON: %s" e

let member k j =
  match Telemetry.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing key %s" k

let str j = Option.get (Telemetry.Json.to_str j)

let test_manifest () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let file = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "BENCHMARK.json is the declared manifest"
    (Decl.manifest ()) file;
  (* every declared metric appears with its unit and better direction *)
  let j = json_of_string file in
  let listed key =
    match member key j with
    | Telemetry.Json.Arr l -> l
    | _ -> Alcotest.failf "%s is not a list" key
  in
  let check_block key ms =
    let entries = listed key in
    Alcotest.(check int) (key ^ " count") (List.length ms) (List.length entries);
    List.iter2
      (fun (m : Decl.metric) e ->
        Alcotest.(check string) "name" m.name (str (member "name" e));
        Alcotest.(check string) (m.name ^ " unit") m.unit (str (member "unit" e));
        Alcotest.(check string) (m.name ^ " better")
          (Decl.better_string m.better)
          (str (member "better" e)))
      ms entries
  in
  check_block "end_to_end" Decl.end_to_end;
  check_block "per_layer" Decl.per_layer

let emitted ~trace =
  let o = Outcome.create () in
  Outcome.check o "ok" true;
  List.iter
    (fun (m : Decl.metric) -> Outcome.set o m.name 1.5)
    (if trace then Decl.per_layer else Decl.end_to_end);
  json_of_string (Outcome.to_json o ~trace)

let test_emitted () =
  List.iter
    (fun trace ->
      let j = emitted ~trace in
      Alcotest.(check bool) "correct" true (member "correct" j = Telemetry.Json.Bool true);
      let metrics = member "metrics" j in
      List.iter
        (fun (m : Decl.metric) ->
          let v = member m.name metrics in
          Alcotest.(check string) (m.name ^ " unit") m.unit (str (member "unit" v));
          (* failed_frac is the run's own count, not a set value *)
          if m.name <> "failed_frac" then
            Alcotest.(check bool) (m.name ^ " value") true
              (Telemetry.Json.to_num (member "value" v) = Some 1.5))
        (if trace then Decl.per_layer else Decl.end_to_end);
      match metrics with
      | Telemetry.Json.Obj kvs ->
        List.iter
          (fun (k, _) -> Alcotest.(check bool) ("emitted name " ^ k) true (name_ok k))
          kvs
      | _ -> Alcotest.fail "metrics is not an object")
    [ false; true ]

let test_missing_metric () =
  let o = Outcome.create () in
  Outcome.check o "ok" true;
  let j = json_of_string (Outcome.to_json o ~trace:false) in
  Alcotest.(check bool) "a run missing metrics is not correct" true
    (member "correct" j = Telemetry.Json.Bool false)

let test_tail () =
  let xs n = List.init n float_of_int in
  Alcotest.(check bool) "p99 of 500 samples not reported" true
    (Quant.tail (xs 500) 0.99 = None);
  Alcotest.(check bool) "p99 of 1100 samples reported" true
    (Quant.tail (xs 1100) 0.99 <> None);
  Alcotest.(check bool) "p90 of 90 samples not reported (9 beyond)" true
    (Quant.tail (xs 90) 0.90 = None);
  Alcotest.(check bool) "p90 of 100 samples reported (10 beyond)" true
    (Quant.tail (xs 100) 0.90 <> None);
  Alcotest.(check bool) "ties leave nothing beyond" true
    (Quant.tail (List.init 5000 (fun _ -> 1.0)) 0.99 = None);
  (match Quant.tail (xs 2000) 0.99 with
  | Some v ->
    Alcotest.(check bool) "at least ten beyond" true (Quant.beyond (xs 2000) 0.99 >= 10);
    Alcotest.(check (float 1e-9)) "p99 of 0..1999" 1979.01 v
  | None -> Alcotest.fail "p99 of 2000 samples");
  Alcotest.(check (float 1e-9)) "median" 2.5 (Quant.median [ 4.0; 1.0; 3.0; 2.0 ])

let span id parent name a b =
  { Spans.id; parent; name; req = "r"; start_ns = a; stop_ns = b }

let test_self_time () =
  (* root [0,100]; children overlap ([10,40], [30,60]) and one runs past
     the root's end ([90,120]); a grandchild sits inside [10,40] *)
  let spans =
    [
      span 0 (-1) "root" 0 100;
      span 1 0 "a" 10 40;
      span 2 0 "b" 30 60;
      span 3 0 "c" 90 120;
      span 4 1 "a" 15 25;
    ]
  in
  let self = List.map (fun (s, v) -> (s.Spans.id, v *. 1e9)) (Spans.self_times spans) in
  let get id = List.assoc id self in
  Alcotest.(check (float 1e-6)) "root self: 100 - |[10,60] u [90,100]|" 40.0 (get 0);
  Alcotest.(check (float 1e-6)) "a self: 30 - 10" 20.0 (get 1);
  Alcotest.(check (float 1e-6)) "leaf self is its duration" 30.0 (get 2);
  let by = Spans.self_by_name spans in
  Alcotest.(check (float 1e-6)) "self by name sums spans" 30.0 (1e9 *. Spans.self_of by "a");
  Alcotest.(check (float 1e-6)) "absent name" 0.0 (Spans.self_of by "zzz");
  (* a region [0,100] on 2 domains whose jobs ran 60 and 30: 110 idle *)
  let region = [ span 0 (-1) "pass" 0 100; span 1 0 "job" 0 60; span 2 0 "job" 10 40 ] in
  Alcotest.(check (list (float 1e-6))) "pool wait: 2 x 100 - 60 - 30" [ 110.0 ]
    (List.map (fun w -> w *. 1e9) (Spans.pool_waits ~jobs:2 region ~region:"pass"))

let test_failed_check () =
  let o = Outcome.create () in
  Outcome.check o "good" true;
  Outcome.check o "good" true;
  Outcome.check o "bad" false;
  Alcotest.(check int) "attempted" 3 o.attempted;
  Alcotest.(check int) "failed" 1 o.failed;
  Alcotest.(check (float 1e-12)) "failed_frac" (1.0 /. 3.0) (Outcome.failed_frac o);
  List.iter (fun (m : Decl.metric) -> Outcome.set o m.name 1.0) Decl.per_layer;
  let j = json_of_string (Outcome.to_json o ~trace:true) in
  Alcotest.(check bool) "a failed check makes the run incorrect" true
    (member "correct" j = Telemetry.Json.Bool false);
  Alcotest.(check (float 1e-12)) "failed_frac emitted" (1.0 /. 3.0)
    (Option.get (Telemetry.Json.to_num (member "value" (member "failed_frac" (member "metrics" j)))))

let test_golden () =
  let path = "golden_test.txt" in
  let oc = open_out path in
  output_string oc "# workload seed digest\naccuracy-study 7 abc\nbad line\n";
  close_out oc;
  let t = Result.get_ok (Golden.load path) in
  Sys.remove path;
  Alcotest.(check bool) "an unreadable file is an error" true
    (Result.is_error (Golden.load path));
  Alcotest.(check (option string)) "recorded" (Some "abc")
    (Golden.find t ~workload:"accuracy-study" ~seed:7);
  Alcotest.(check (option string)) "absent" None (Golden.find t ~workload:"accuracy-study" ~seed:8)

let () =
  Alcotest.run "perfbench"
    [
      ( "declarations",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "manifest" `Quick test_manifest;
          Alcotest.test_case "emitted" `Quick test_emitted;
          Alcotest.test_case "missing metric" `Quick test_missing_metric;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "tail rule" `Quick test_tail;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "failed check" `Quick test_failed_check;
          Alcotest.test_case "golden" `Quick test_golden;
        ] );
    ]
