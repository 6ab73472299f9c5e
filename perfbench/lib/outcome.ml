(* One run's result: attempted/failed output checks and the metric
   values, rendered as the single JSON line the run ends with. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  values : (string, float) Hashtbl.t;
}

let create () = { attempted = 0; failed = 0; values = Hashtbl.create 64 }

(* Count one operation whose output was checked. *)
let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let failed_frac t =
  if t.attempted = 0 then 1.0
  else float_of_int t.failed /. float_of_int t.attempted

let set t name v =
  match Decl.find name with
  | None -> invalid_arg ("Outcome.set: undeclared metric " ^ name)
  | Some _ -> Hashtbl.replace t.values name v

let get t name = Hashtbl.find_opt t.values name

let scope_matches ~trace (m : Decl.metric) =
  match m.scope with Decl.End_to_end _ -> not trace | Decl.Per_layer -> trace

(* Declared metrics of the run's scope that have no finite value. *)
let missing t ~trace =
  List.filter_map
    (fun (m : Decl.metric) ->
      if not (scope_matches ~trace m) then None
      else
        match get t m.name with
        | Some v when Float.is_finite v -> None
        | _ -> Some m.name)
    Decl.all

let number v =
  let s = Printf.sprintf "%.17g" v in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* The result line. A missing metric makes the run incorrect; it is
   then left out rather than invented. *)
let to_json t ~trace =
  if trace then set t "failed_frac" (failed_frac t);
  let missing = missing t ~trace in
  List.iter
    (fun n -> Printf.eprintf "perfbench: metric %s not measured\n%!" n)
    missing;
  let correct = t.failed = 0 && missing = [] && t.attempted > 0 in
  let metrics =
    List.filter_map
      (fun (m : Decl.metric) ->
        match get t m.name with
        | Some v when scope_matches ~trace m && Float.is_finite v ->
          Some
            (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
               (number v) m.unit)
        | _ -> None)
      Decl.all
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct (max 1 t.attempted) t.failed
    (String.concat ", " metrics)
