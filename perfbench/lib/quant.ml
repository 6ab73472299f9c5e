(* Order statistics for timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (NumPy's default). *)
let quantile xs q =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Samples strictly above the [q] quantile. *)
let beyond xs q =
  let v = quantile xs q in
  List.length (List.filter (fun x -> x > v) xs)

(* A tail percentile is reported only when at least [min_beyond]
   samples lie beyond it; otherwise it is not measured. *)
let min_beyond = 10

let tail xs q = if beyond xs q >= min_beyond then Some (quantile xs q) else None
