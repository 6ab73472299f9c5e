(* Per-seed golden digests of the program's outputs.

   A line of the golden file is [workload seed digest]; the digest is
   the MD5 of every [Uarch.Metrics.encode] (and, for serve-mixed, every
   reply) a run of that workload and seed produces. A seed absent from
   the file is checked for determinism within the run instead; a file
   that cannot be read is an error, not an empty table. *)

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        Ok (List.rev acc)
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; s; d ] when w <> "" && w.[0] <> '#' -> (
          match int_of_string_opt s with
          | Some seed -> go (((w, seed), d) :: acc)
          | None -> go acc)
        | _ -> go acc)
    in
    go []

let find table ~workload ~seed = List.assoc_opt (workload, seed) table
