type row = { bench : string; eds_ipc : float; errors : float array }

let ks = [ 0; 1; 2; 3 ]

type res = { res_eds_ipc : float; err : float }

let jobs () =
  Exp_common.benches
  |> List.concat_map (fun spec -> List.map (fun k -> (spec, k)) ks)
  |> Array.of_list

let exec cache ((spec : Workload.Spec.t), k) =
  let cfg = Config.Machine.baseline in
  let s = Exp_common.src spec in
  let eds =
    Exp_common.reference cache ~perfect_caches:true ~perfect_bpred:true cfg s
  in
  let p =
    Exp_common.profile cache ~k ~perfect_caches:true ~perfect_bpred:true cfg s
  in
  let ss =
    Exp_common.synthetic cache cfg p ~seed:Exp_common.seed
  in
  {
    res_eds_ipc = eds.Statsim.ipc;
    err =
      Exp_common.pct
        (Stats.Summary.absolute_error ~reference:eds.Statsim.ipc
           ~predicted:ss.Statsim.ipc);
  }

let rows_of results =
  let n_ks = List.length ks in
  List.mapi
    (fun i (spec : Workload.Spec.t) ->
      let at j = results.((i * n_ks) + j) in
      {
        bench = spec.name;
        eds_ipc = (at 0).res_eds_ipc;
        errors = Array.init n_ks (fun j -> (at j).err);
      })
    Exp_common.benches

let average rows =
  let n = List.length ks in
  let acc = Array.make n 0.0 in
  List.iter
    (fun r -> Array.iteri (fun i e -> acc.(i) <- acc.(i) +. e) r.errors)
    rows;
  Array.map (fun s -> s /. float_of_int (max 1 (List.length rows))) acc

let reduce _jobs results =
  let rows = rows_of results in
  let open Runner.Report in
  {
    id = "fig4";
    blocks =
      [
        Line
          "== Figure 4: IPC error (%) vs SFG order k (perfect caches & \
           branch prediction) ==";
        table ~name:"main"
          ~columns:[ "IPC.eds"; "k=0"; "k=1"; "k=2"; "k=3" ]
          (List.map
             (fun r -> (r.bench, nums (r.eds_ipc :: Array.to_list r.errors)))
             rows
          @ [
              ( "avg",
                nums
                  (Stats.Summary.mean (List.map (fun r -> r.eds_ipc) rows)
                  :: Array.to_list (average rows)) );
            ]);
        Line "(paper: k=0 errs up to 35%; k>=1 below ~2% on average)";
        Line "";
      ];
  }

let plan = Runner.Plan.make ~jobs ~exec ~reduce
