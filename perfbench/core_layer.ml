(* The core layer: ops issued one call at a time through Dsu.Driver
   (default plan), the batch kernels, and the exact work counters. *)

module D = Dsu.Driver
open Bench

let exec (d : D.t) (ops : Inputs.ops) res i =
  let a = Array.unsafe_get ops.Inputs.a i in
  match Bytes.unsafe_get ops.Inputs.kind i with
  | '\000' -> d.D.unite a (Array.unsafe_get ops.Inputs.b i)
  | '\001' ->
    Array.unsafe_set res i
      (Bool.to_int (d.D.same_set a (Array.unsafe_get ops.Inputs.b i)))
  | _ -> Array.unsafe_set res i (d.D.find a)

(* Untraced pass: its wall time. *)
let plain_pass d ops res =
  let t0 = now () in
  for i = 0 to Inputs.length ops - 1 do
    exec d ops res i
  done;
  now () - t0

(* Traced pass: every call bracketed, time summed per op kind. *)
let traced_pass d ops res ~sums ~calls =
  let t0 = now () in
  for i = 0 to Inputs.length ops - 1 do
    let k = Char.code (Bytes.unsafe_get ops.Inputs.kind i) in
    let s = now () in
    exec d ops res i;
    let dt = now () - s in
    sums.(k) <- sums.(k) + dt;
    calls.(k) <- calls.(k) + 1
  done;
  now () - t0

type passes = {
  plain_ns : float list;  (** untraced pass wall times *)
  traced_ns : float list;  (** traced pass wall times *)
  op_ns : float array;  (** traced per-call ns by kind: unite, same_set, find *)
  op_calls : int array;
}

(* [pairs] rounds of one untraced and one traced pass over [ops], each on
   a fresh structure; alternating puts both kinds under the same host
   conditions. *)
let passes ~seed ~ops ~(expected : Oracle.expected) ~pairs =
  let m = Inputs.length ops in
  let res = Array.make m 0 in
  let plain = ref [] and traced_l = ref [] in
  let sums = Array.make 3 0 and calls = Array.make 3 0 in
  for i = 0 to (2 * pairs) - 1 do
    let d = D.create ~seed Inputs.n in
    Gc.full_major ();
    if i land 1 = 1 then
      traced_l := float_of_int (traced_pass d ops res ~sums ~calls) :: !traced_l
    else plain := float_of_int (plain_pass d ops res) :: !plain;
    let labels = Oracle.labels_of_parents (d.D.parents_snapshot ()) in
    count ~ops:m ~bad:(Oracle.wrong_answers expected ops res labels)
  done;
  {
    plain_ns = !plain;
    traced_ns = !traced_l;
    op_ns = Array.init 3 (fun k -> per_call_ns ~sum:sums.(k) ~calls:calls.(k));
    op_calls = calls;
  }

(* Mix-weighted per-call cost of a traced pass, in ns per op. *)
let predicted_ns_per_op p =
  let total = Array.fold_left ( + ) 0 p.op_calls in
  let w = ref 0. in
  Array.iteri (fun k c -> w := !w +. (p.op_ns.(k) *. float_of_int c)) p.op_calls;
  !w /. float_of_int (max 1 total)

(* Exact work counts (Dsu.Stats) of one pass over [ops]: traversal
   steps and splitting CAS attempts per same_set/unite call. *)
let counts ~seed ~ops ~expected =
  let m = Inputs.length ops in
  let d = D.create ~seed ~collect_stats:true Inputs.n in
  let res = Array.make m 0 in
  for i = 0 to m - 1 do
    exec d ops res i
  done;
  let labels = Oracle.labels_of_parents (d.D.parents_snapshot ()) in
  count ~ops:m ~bad:(Oracle.wrong_answers expected ops res labels);
  match d.D.stats () with
  | None -> failwith "Core_layer.counts: driver created without stats"
  | Some s ->
    let per_op x = float_of_int x /. float_of_int (max 1 m) in
    (per_op s.Dsu.Stats.find_iters, per_op s.Dsu.Stats.compaction_cas)

type batch = {
  unite_batch_ns_per_edge : float;
  find_batch_ns_per_vertex : float;
}

(* [unite_batch] over [nchunks] edge batches ([next c] yields batch c),
   then [find_batch] over every vertex in 65536-vertex slices; the roots
   found must give the reference partition [labels]. *)
let batch_probe ~seed ~nchunks ~next ~labels =
  let n = Inputs.n in
  let d = D.create ~seed n in
  Gc.full_major ();
  let ub = ref 0 and edges = ref 0 in
  for c = 0 to nchunks - 1 do
    let xs, ys = next c in
    let t = now () in
    d.D.unite_batch xs ys;
    ub := !ub + (now () - t);
    edges := !edges + Array.length xs
  done;
  let slice = 65_536 in
  let roots = Array.make n 0 and fb = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let len = min slice (n - !lo) in
    let vs = Array.init len (fun k -> !lo + k) in
    let t = now () in
    let r = d.D.find_batch vs in
    fb := !fb + (now () - t);
    Array.blit r 0 roots !lo len;
    lo := !lo + len
  done;
  let in_range = Array.for_all (fun r -> r >= 0 && r < n) roots in
  let ok = in_range && Oracle.min_id_labels n (Array.get roots) = labels in
  count ~ops:!edges ~bad:(if ok then 0 else !edges);
  {
    unite_batch_ns_per_edge = float_of_int !ub /. float_of_int (max 1 !edges);
    find_batch_ns_per_vertex = float_of_int !fb /. float_of_int n;
  }
