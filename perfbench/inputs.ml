(* Workload inputs, all generated from the run's seed.  The program under
   test only ever sees these values: op arrays for Dsu.Driver and the
   service, edge-stream descriptors for the connectivity pipeline. *)

module Rng = Repro_util.Rng
module Es = Graphs.Edge_stream

let n = 1 lsl 20

(* One op per slot: kind 0 = unite, 1 = same_set, 2 = find (b unused). *)
type ops = { kind : Bytes.t; a : int array; b : int array }

let unite = '\000'
let same_set = '\001'
let find = '\002'
let length ops = Bytes.length ops.kind

(* The service's request mix: 50% unites, 40% same_sets, 10% finds, with
   uniform endpoints on [0, n). *)
let service_mix ~seed ~count =
  let rng = Rng.create seed in
  let kind = Bytes.create count in
  let a = Array.make count 0 and b = Array.make count 0 in
  for i = 0 to count - 1 do
    let r = Rng.int rng 100 in
    Bytes.unsafe_set kind i
      (if r < 50 then unite else if r < 90 then same_set else find);
    a.(i) <- Rng.int rng n;
    b.(i) <- Rng.int rng n
  done;
  { kind; a; b }

let prefix ops count =
  let count = min count (length ops) in
  {
    kind = Bytes.sub ops.kind 0 count;
    a = Array.sub ops.a 0 count;
    b = Array.sub ops.b 0 count;
  }

(* Per-op requests drawn from a stream's first edges, alternating unite
   and same_set: the stream's own endpoints through the per-op layers. *)
let ops_of_stream stream ~count =
  let count = min count (Es.total_edges stream) in
  let kind = Bytes.create count in
  let a = Array.make count 0 and b = Array.make count 0 in
  let buf = Es.make_chunk stream in
  let pos = ref 0 and idx = ref 0 in
  while !pos < count do
    Es.fill stream !idx buf;
    incr idx;
    let take = min buf.Es.len (count - !pos) in
    Array.blit buf.Es.src 0 a !pos take;
    Array.blit buf.Es.dst 0 b !pos take;
    pos := !pos + take
  done;
  for i = 0 to count - 1 do
    Bytes.set kind i (if i land 1 = 0 then unite else same_set)
  done;
  { kind; a; b }

(* The connectivity input: n vertices, 8n edges. *)
let power_law_stream ~seed = Es.power_law ~theta:2.0 ~seed ~n ~m:(8 * n) ()
