(** The shared-memory primitives the concurrent algorithm needs.

    Cell [i] of the memory holds node [i]'s {!Dsu_algorithm.Word} — its
    parent and, under rank linking, its rank.  Only single-word atomic
    reads and compare-and-swaps are required: under randomized linking no
    second word ever has to change together with a parent pointer
    (Section 3), and rank linking keeps the rank in the same word.

    The instances in this library are {!Native_memory} over
    {!Repro_util.Flat_atomic_array} for real OCaml 5 domains,
    {!Dsu_sim.Sim_memory} over the APRAM simulator's effect-based shared
    memory for exact step counting, and the chunked memory of
    {!Growable_unbounded}. *)

module type S = sig
  type t

  val read : t -> int -> int
  (** Atomic load of node [i]'s parent. *)

  val cas : t -> int -> int -> int -> bool
  (** [cas t i expected desired] atomically replaces node [i]'s parent.
      Strong: fails only if the cell did not hold [expected]. *)

  val cas_weak : t -> int -> int -> int -> bool
  (** Like {!cas} but {e may fail spuriously} (return [false] with the cell
      unchanged even though it held [expected]).  Use only where a failed
      attempt needs no distinct handling from a lost race — the splitting
      updates of Algorithms 4/5, where a spurious failure is exactly a
      failed try.  Implementations without a cheaper weak CAS may equate it
      with {!cas}. *)

  val prefetch : t -> int -> unit
  (** Hint that node [i]'s cell is about to be read.  Purely advisory —
      never faults, never counts as a memory step; simulator instances
      make it a no-op. *)
end
