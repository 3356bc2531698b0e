module Flat_atomic_array = Repro_util.Flat_atomic_array
module Rng = Repro_util.Rng

module A = Dsu_algorithm.Make (Native_memory)

type t = A.t

(* [fetch_and_add], not a plain [ref] + [incr]: [create] may be called from
   several domains at once, and racing increments could hand two structures
   the same default seed (identical priority permutations defeat the
   randomized-linking analysis). *)
let self_seed = Atomic.make 0x4d595df4d0f33173

let of_memory ?policy ?early ?backoff ?(collect_stats = false) ?on_link
    ~linking ~n mem =
  let stats = if collect_stats then Some (Dsu_stats.create ()) else None in
  A.create ?policy ?early ?backoff ?stats ?on_link ~mem ~n ~linking ()

let create ?policy ?early ?backoff ?memory_order ?collect_stats ?on_link ?seed
    ?(padded = false) n =
  if n < 1 then invalid_arg "Dsu_native.create: n must be >= 1";
  let seed =
    match seed with
    | Some s -> s
    | None -> 1 + Atomic.fetch_and_add self_seed 1
  in
  let ids = Rng.permutation (Rng.create seed) n in
  of_memory ?policy ?early ?backoff ?collect_stats ?on_link
    ~linking:(Dsu_algorithm.Random_ids (fun i -> ids.(i)))
    ~n
    (Native_memory.make ~padded ?order:memory_order n (fun i -> i))

let n = A.n

(* Top-level operations time themselves when telemetry is armed
   (dsu_unite_latency_ns / dsu_same_set_latency_ns / dsu_ops_total);
   per-find latency is captured inside the algorithm's find itself. *)

let same_set t x y =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    let r = A.same_set t x y in
    Dsu_obs.record_same_set_latency t0;
    r
  end
  else A.same_set t x y

let unite t x y =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    A.unite t x y;
    Dsu_obs.record_unite_latency t0
  end
  else A.unite t x y

let find t x =
  if Atomic.get Dsu_obs.armed then Dsu_obs.record_find_op ();
  A.find t x

let unite_batch t xs ys =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    A.unite_batch t xs ys;
    Dsu_obs.record_unite_latency t0
  end
  else A.unite_batch t xs ys

let same_set_batch t xs ys =
  if Atomic.get Dsu_obs.armed then begin
    let t0 = Dsu_obs.now_ns () in
    let r = A.same_set_batch t xs ys in
    Dsu_obs.record_same_set_latency t0;
    r
  end
  else A.same_set_batch t xs ys

let find_batch t xs =
  if Atomic.get Dsu_obs.armed then Dsu_obs.record_find_op ();
  A.find_batch t xs

let id = A.id
let parent_of = A.parent_of
let is_root = A.is_root
let count_sets = A.count_sets

let stats t = match A.stats t with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

let reset_stats t = match A.stats t with None -> () | Some s -> Dsu_stats.reset s

let invariant_violations = A.invariant_violations

let by_rank t =
  match A.linking t with
  | Dsu_algorithm.By_rank -> true
  | Dsu_algorithm.Random_ids _ -> false

let memory_order t = Native_memory.order (A.mem t)

let parents_snapshot t =
  Array.map Dsu_algorithm.Word.parent_of_word
    (Flat_atomic_array.snapshot (A.mem t).Native_memory.arr)

let sets t =
  let size = A.n t in
  let root = Array.init size (fun i -> A.find t i) in
  let classes : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = size - 1 downto 0 do
    let r = root.(i) in
    Hashtbl.replace classes r (i :: Option.value ~default:[] (Hashtbl.find_opt classes r))
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) classes []
  |> List.map (List.sort compare)
  |> List.sort compare

let ids_snapshot t = Array.init (A.n t) (fun i -> A.id t i)

(* Fuzzy (non-quiescent) scan: per-cell acquire loads racing the mutators,
   each preceded by a [Snapshot_read] fault site so chaos can crash a
   snapshotter mid-scan.  Sound by Lemma 3.1: parents only ever move to
   proper ancestors, so every scanned edge was a real ancestor edge at the
   instant its cell was read.  Random ids are immutable and need no care;
   a rank comes from the same word read as its parent, so each node's
   (parent, rank) pair is internally consistent. *)
module Fi = Repro_fault.Inject

let snapshot_fuzzy t =
  let arr = (A.mem t).Native_memory.arr in
  let n = A.n t in
  let parents = Array.make n 0 and keys = Array.make n 0 in
  for i = 0 to n - 1 do
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Snapshot_read;
    let w = Flat_atomic_array.get_acquire arr i in
    parents.(i) <- Dsu_algorithm.Word.parent_of_word w;
    keys.(i) <-
      (match A.linking t with
      | Dsu_algorithm.Random_ids prio -> prio i
      | Dsu_algorithm.By_rank -> Dsu_algorithm.Word.rank_of_word w)
  done;
  (parents, keys)

let of_snapshot ?policy ?early ?backoff ?memory_order ?collect_stats ?on_link
    ?(padded = false) ~parents ~ids () =
  let n = Array.length parents in
  if n < 1 || Array.length ids <> n then
    invalid_arg "Dsu_native.of_snapshot: malformed snapshot";
  let ids = Array.copy ids in
  let seen = Array.make n false in
  Array.iter
    (fun id ->
      if id < 0 || id >= n || seen.(id) then
        invalid_arg "Dsu_native.of_snapshot: ids are not a permutation";
      seen.(id) <- true)
    ids;
  Array.iteri
    (fun i p ->
      if p < 0 || p >= n then
        invalid_arg "Dsu_native.of_snapshot: parent out of range";
      if p <> i && ids.(p) <= ids.(i) then
        invalid_arg "Dsu_native.of_snapshot: parents violate the linking order")
    parents;
  of_memory ?policy ?early ?backoff ?collect_stats ?on_link
    ~linking:(Dsu_algorithm.Random_ids (fun i -> ids.(i)))
    ~n
    (Native_memory.make ~padded ?order:memory_order n (fun i -> parents.(i)))
