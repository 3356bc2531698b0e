(* Shared measurement plumbing: the clock, order statistics, the run's
   correctness tally and the metric table printed as the result line. *)

let now = Repro_obs.Clock.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

(* Median with the two middle values averaged on even counts. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then invalid_arg "Bench.median: no samples"
  else if k land 1 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank quantile of an int sample; sorts [a] in place. *)
let quantile_int a q =
  let k = Array.length a in
  if k = 0 then invalid_arg "Bench.quantile_int: no samples";
  Array.sort Int.compare a;
  a.(min (k - 1) (int_of_float (q *. float_of_int k)))

(* What one [now (); now ()] bracket adds to a timed call: the median of
   many empty brackets.  Per-call layer times subtract it. *)
let bracket_ns =
  lazy
    (let k = 20_001 in
     let d = Array.make k 0 in
     for i = 0 to k - 1 do
       let t0 = now () in
       d.(i) <- now () - t0
     done;
     float_of_int (quantile_int d 0.5))

(* Mean time per call from a sum of bracketed call times. *)
let per_call_ns ~sum ~calls =
  if calls = 0 then 0.
  else
    Float.max 0.
      ((float_of_int sum /. float_of_int calls) -. Lazy.force bracket_ns)

(* Run [f] until the times it returns (its measured ns) add up to
   [budget_ns], and at least once; [f] gets the round index.  Set-up and
   checks between rounds do not count. *)
let repeat_for ~budget_ns f =
  let rec go i spent = if i = 0 || spent < budget_ns then go (i + 1) (spent + f i) in
  go 0 0

(* ------------------------------------------------------------ tally *)

(* Every operation the run checks against an oracle lands here; a
   failed cross-layer consistency check marks the whole run incorrect. *)
let attempted = ref 0
let failed = ref 0
let self_check_ok = ref true

let count ~ops ~bad =
  attempted := !attempted + ops;
  failed := !failed + bad

let self_check name ok detail =
  Printf.eprintf "perfbench: check %-24s %s (%s)\n%!" name
    (if ok then "ok" else "FAILED")
    detail;
  if not ok then self_check_ok := false

(* ---------------------------------------------------------- metrics *)

let metrics : (string * float * string) list ref = ref []
let emit name unit value = metrics := (name, value, unit) :: !metrics

let json_number v =
  if not (Float.is_finite v) then invalid_arg "Bench.json_number: non-finite value"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let body =
    List.rev !metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
    |> String.concat ", "
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!self_check_ok && !failed = 0)
    !attempted !failed body

let log fmt = Printf.eprintf ("perfbench: " ^^ fmt ^^ "\n%!")
