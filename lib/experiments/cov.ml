let lengths =
  List.map
    (fun n -> int_of_float (float_of_int n *. Exp_common.scale))
    [ 5_000; 10_000; 25_000; 50_000 ]

let seeds_per_length = 20

(* "25k" when the length is a whole number of thousands, the exact
   count otherwise: a scaled-down length must not print as "0k" *)
let length_label l =
  if l mod 1000 = 0 then Printf.sprintf "%dk" (l / 1000) else string_of_int l

type row = { bench : string; cov : float array }

let jobs () =
  Exp_common.benches
  |> List.concat_map (fun spec -> List.map (fun len -> (spec, len)) lengths)
  |> Array.of_list

let exec cache ((spec : Workload.Spec.t), len) =
  let cfg = Config.Machine.baseline in
  let p = Exp_common.profile cache cfg (Exp_common.src spec) in
  let ipcs =
    List.init seeds_per_length (fun i ->
        (Exp_common.synthetic cache ~target_length:len cfg p
           ~seed:(Exp_common.seed + (1000 * i)))
          .Statsim.ipc)
  in
  Exp_common.pct (Stats.Summary.cov ipcs)

let reduce _jobs results =
  let n = List.length lengths in
  let rows =
    List.mapi
      (fun i (spec : Workload.Spec.t) ->
        {
          bench = spec.name;
          cov = Array.init n (fun j -> results.((i * n) + j));
        })
      Exp_common.benches
  in
  let avg =
    Array.init n (fun i ->
        Stats.Summary.mean (List.map (fun r -> r.cov.(i)) rows))
  in
  let open Runner.Report in
  {
    id = "cov";
    blocks =
      [
        Line
          (Printf.sprintf
             "== Section 4.1: IPC coefficient of variation vs synthetic \
              trace length (%d seeds) =="
             seeds_per_length);
        table ~name:"main"
          ~columns:(List.map length_label lengths)
          (List.map (fun r -> (r.bench, nums (Array.to_list r.cov))) rows
          @ [ ("avg", nums (Array.to_list avg)) ]);
        Line
          "(paper: CoV shrinks with length — 4% at 100K down to 1% at 1M \
           synthetic instructions)";
        Line "";
      ];
  }

let plan = Runner.Plan.make ~jobs ~exec ~reduce
