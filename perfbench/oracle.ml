(* Reference answers from the sequential union-find (lib/sequential),
   computed outside every timed region, and the checks that compare the
   program's outputs against them.  Partitions are compared as min-id
   labels: [labels.(v)] is the smallest vertex of [v]'s set. *)

module Seq = Sequential.Seq_dsu
module Es = Graphs.Edge_stream

let min_id_labels n root =
  let roots = Array.init n root in
  let minid = Array.make n max_int in
  Array.iteri (fun v r -> if v < minid.(r) then minid.(r) <- v) roots;
  Array.map (fun r -> minid.(r)) roots

(* Labels of a quiescent parent array, walked here rather than through
   the program's [find]; an out-of-range pointer or a cycle yields an
   all-[-1] labelling, which never matches a reference. *)
let labels_of_parents parents =
  let n = Array.length parents in
  let p = Array.copy parents in
  let broken = ref false in
  let root v =
    let r = ref v and steps = ref 0 in
    while (not !broken) && p.(!r) <> !r do
      let u = p.(!r) in
      incr steps;
      if u < 0 || u >= n || !steps > n then broken := true else r := u
    done;
    (* second walk: point the path at its root *)
    let x = ref v in
    while (not !broken) && p.(!x) <> !r do
      let u = p.(!x) in
      p.(!x) <- !r;
      x := u
    done;
    !r
  in
  let labels = min_id_labels n root in
  if !broken then Array.make n (-1) else labels

type expected = {
  same : Bytes.t;  (** reference same_set answers by op index *)
  labels : int array;  (** the final partition *)
}

let of_ops (ops : Inputs.ops) =
  let s = Seq.create Inputs.n in
  let same = Bytes.make (Inputs.length ops) '\000' in
  for i = 0 to Inputs.length ops - 1 do
    let a = ops.Inputs.a.(i) and b = ops.Inputs.b.(i) in
    match Bytes.get ops.Inputs.kind i with
    | '\000' -> Seq.unite s a b
    | '\001' -> if Seq.same_set s a b then Bytes.set same i '\001'
    | _ -> ()
  done;
  { same; labels = min_id_labels Inputs.n (Seq.find s) }

let labels_of_stream stream =
  let s = Seq.create (Es.n stream) in
  Es.iter stream (fun u v -> Seq.unite s u v);
  min_id_labels (Es.n stream) (Seq.find s)

(* Whether op [i]'s answer in [res] (same_set as 0/1, find as the
   returned root) is wrong, given a final partition [labels] equal to the
   reference's.  A find must return a member of the query's set: sets
   only grow, so checking against the final partition is sound. *)
let wrong_answer expected (ops : Inputs.ops) res labels i =
  match Bytes.get ops.Inputs.kind i with
  | '\000' -> false
  | '\001' -> res.(i) <> Char.code (Bytes.get expected.same i)
  | _ ->
    let r = res.(i) in
    r < 0 || r >= Array.length labels || labels.(r) <> labels.(ops.Inputs.a.(i))

(* Wrong answers among [ops] given the program's final [labels]; a wrong
   partition fails every op. *)
let wrong_answers expected (ops : Inputs.ops) res labels =
  if labels <> expected.labels then Inputs.length ops
  else begin
    let bad = ref 0 in
    for i = 0 to Inputs.length ops - 1 do
      if wrong_answer expected ops res labels i then incr bad
    done;
    !bad
  end
