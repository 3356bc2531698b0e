(** Concurrent linking by rank (Section 7) over the one
    {!Dsu_algorithm.Word} per node: {!Dsu_algorithm.Make} with the
    [By_rank] linking rule.  This module only adds the rank-specific
    constructors and accessors. *)

include Dsu_algorithm.Word

(** Native instantiation: the {!Dsu_native} handle and telemetry
    wrappers, built with [By_rank] linking. *)
module Native = struct
  include Dsu_native

  let create ?policy ?backoff ?memory_order ?collect_stats ?(padded = false)
      ?on_link n =
    (* Bounds-check before allocating: n > max_nodes must raise
       Invalid_argument, not attempt a 2^40-word allocation. *)
    if n < 1 || n > max_nodes then
      invalid_arg
        (Printf.sprintf
           "Packed_dsu.create: n must be in [1, 2^%d] (parent field is %d \
            bits)"
           parent_bits parent_bits);
    of_memory ?policy ?backoff ?collect_stats ?on_link
      ~linking:Dsu_algorithm.By_rank ~n
      (Native_memory.make ~padded ?order:memory_order n (fun i -> i))

  let rank_of = id
  let ranks_snapshot = ids_snapshot

  let of_snapshot ?policy ?backoff ?memory_order ?collect_stats
      ?(padded = false) ?on_link ~parents ~ranks () =
    let n = Array.length parents in
    if n < 1 || Array.length ranks <> n then
      invalid_arg "Packed_dsu.of_snapshot: malformed snapshot";
    if n > max_nodes then
      invalid_arg "Packed_dsu.of_snapshot: n overflows the parent field";
    Array.iteri
      (fun i p ->
        if p < 0 || p >= n then
          invalid_arg "Packed_dsu.of_snapshot: parent out of range";
        if ranks.(i) < 0 || ranks.(i) > max_rank then
          invalid_arg "Packed_dsu.of_snapshot: rank overflows the rank field";
        if
          p <> i
          && not (ranks.(i) < ranks.(p) || (ranks.(i) = ranks.(p) && i < p))
        then invalid_arg "Packed_dsu.of_snapshot: parents violate the rank order")
      parents;
    of_memory ?policy ?backoff ?collect_stats ?on_link
      ~linking:Dsu_algorithm.By_rank ~n
      (Native_memory.make ~padded ?order:memory_order n (fun i ->
           word ~rank:ranks.(i) ~parent:parents.(i)))
end

(** Simulator instantiation over {!Dsu_sim.Sim_memory}: every word read
    and CAS is one APRAM step.  Backoff is off — a spin is host time, not
    a simulated step, so it would only slow the simulation. *)
module Sim = struct
  module A = Dsu_algorithm.Make (Dsu_sim.Sim_memory)

  type t = A.t

  let mem_size n = n
  let init _n i = i

  let handle ?policy n =
    A.create ?policy ~backoff:false ~stats:(Dsu_stats.create ())
      ~linking:Dsu_algorithm.By_rank ~mem:() ~n ()

  let find = A.find
  let same_set = A.same_set
  let unite = A.unite
  let parent_of = A.parent_of
  let rank_of = A.id

  let stats t =
    match A.stats t with None -> Dsu_stats.zero | Some s -> Dsu_stats.snapshot s

  let same_set_op t x y () =
    Apram.Process.record_invoke ~name:"same_set" ~args:[ x; y ];
    let r = A.same_set t x y in
    Apram.Process.record_return (if r then 1 else 0)

  let unite_op t x y () =
    Apram.Process.record_invoke ~name:"unite" ~args:[ x; y ];
    A.unite t x y;
    Apram.Process.record_return 0
end
