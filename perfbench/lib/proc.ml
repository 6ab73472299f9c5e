(* Process-level measurements: allocation, peak memory, scratch
   directories. *)

(* Words allocated by the whole process so far. [Gc.quick_stat] after a
   full major collection includes every domain, joined or alive; the
   per-domain [Gc.minor_words] would miss worker domains. *)
let process_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Words allocated by the calling domain so far: for timing one call on
   the domain that runs it. *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let status_field pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        let prefix = field ^ ":" in
        let n = String.length prefix in
        if String.length line > n && String.sub line 0 n = prefix then
          Scanf.sscanf_opt (String.sub line n (String.length line - n))
            " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

(* Peak resident set (VmHWM) in MB: a process-lifetime high-water mark. *)
let peak_rss_mb ?(pid = "self") () = status_field pid "VmHWM"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
