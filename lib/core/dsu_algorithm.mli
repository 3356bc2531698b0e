(** The concurrent disjoint-set-union algorithm of Jayanti and Tarjan,
    as a functor over the shared-memory primitives — one implementation of
    Algorithms 1–7 that runs both natively (over {!Native_memory}; see
    {!Dsu_native}) and inside the APRAM simulator (see {!Dsu_sim}), under
    either linking rule: the paper's random ids or Section 7's ranks
    ({!Packed_dsu}).  Every cell holds one {!Word}.

    See the implementation for the transcription notes (the two documented
    deviations from the printed pseudocode are the merged redundant read in
    the early-termination variants and the skipped no-op splitting [Cas]). *)

(** The one word every node's cell holds, under both linking rules:
    parent index and rank in fixed bit fields of one 63-bit OCaml int, so
    a link or a splitting step is a single CAS on a single word and every
    unpack is a mask or a shift.

    {v
      bits 61..62   unused
      bits 40..60   rank (21 bits)
      bits  0..39   parent index (40 bits)
    v}

    A node is a root iff its parent field is its own index.  Under
    random-id linking the rank field is always 0, so a cell holds exactly
    its node's parent index.  Under rank linking ranks never exceed
    [ceil(lg n) <= 40], far below the field's [2^21 - 1]; the parent field
    bounds the universe to [n <= 2^40] nodes. *)
module Word : sig
  val parent_bits : int
  val rank_bits : int

  val max_nodes : int
  (** [2^parent_bits], the largest supported universe. *)

  val max_rank : int
  (** [2^rank_bits - 1], the largest encodable rank. *)

  val parent_of_word : int -> int
  val rank_of_word : int -> int

  val word : rank:int -> parent:int -> int
  (** [word ~rank:0 ~parent:i] is node [i]'s initial word. *)

  val with_parent : int -> int -> int
  (** [with_parent w p] swings [w]'s parent field to [p], keeping its rank. *)
end

type linking =
  | Random_ids of (int -> int)
      (** [Random_ids prio]: [prio i] is node [i]'s position in the random
          total order; ties are broken by node index, so priorities need
          not be distinct (the growable extension draws them from a large
          universe on the fly).  Rank fields stay 0. *)
  | By_rank
      (** Linking by rank (Section 7): ties broken by node index, the
          winner promoted by a separate best-effort CAS. *)
(** How [Unite] picks the child root; fixed at [create]. *)

module Make (M : Memory_intf.S) : sig
  type t
  (** A handle: the memory holding the node words plus the linking rule,
      the chosen [Find] variant, and instrumentation. *)

  val create :
    ?policy:Find_policy.t ->
    ?early:bool ->
    ?backoff:bool ->
    ?stats:Dsu_stats.t ->
    ?on_link:(child:int -> parent:int -> unit) ->
    mem:M.t ->
    n:int ->
    linking:linking ->
    unit ->
    t
  (** [create ~mem ~n ~linking ()] wraps a memory whose cell [i] holds node
      [i]'s word (initially [i]: rank 0, its own parent).  [policy]
      defaults to two-try splitting; [early] selects Algorithms 6/7;
      [backoff] (default [true]) spins a bounded, exponentially growing
      number of [cpu_relax] iterations after a failed link CAS in [unite]
      (see {!Repro_util.Backoff}); [on_link] observes every successful
      link (the union forest).
      @raise Invalid_argument unless [1 <= n <= Word.max_nodes], or
      if [early] is asked of [By_rank]. *)

  val n : t -> int
  val mem : t -> M.t
  val linking : t -> linking
  val policy : t -> Find_policy.t
  val early : t -> bool
  val backoff : t -> bool
  val stats : t -> Dsu_stats.t option

  val id : t -> int -> int
  (** The node's key in the linking order: its priority under
      [Random_ids], its current rank under [By_rank]. *)

  val find : t -> int -> int
  (** Current root of the node's tree (Algorithm 1, 4 or 5, or the
      two-pass concurrent compression). *)

  val same_set : t -> int -> int -> bool
  (** Algorithm 2, or 6 when [early]. *)

  val unite : t -> int -> int -> unit
  (** Algorithm 3, or 7 when [early]. *)

  val unite_batch : t -> int array -> int array -> unit
  (** [unite_batch t xs ys] unites [xs.(k), ys.(k)] for every [k], in
      order, through a bulk kernel with a per-call direct-mapped root
      cache (a previously observed ancestor stays an ancestor, so finds
      restart from it) and parent-cell prefetching a fixed distance
      ahead.  Equivalent to [Array.iter2 (unite t)] — linearizable per
      element, not atomic as a whole — but measurably faster on large
      batches.  Uses the plain (non-early) rounds regardless of [early].
      @raise Invalid_argument on length mismatch or out-of-range nodes. *)

  val same_set_batch : t -> int array -> int array -> bool array
  (** [same_set_batch t xs ys] answers [same_set t xs.(k) ys.(k)] for
      every [k], with the same root cache and prefetching as
      {!unite_batch}.
      @raise Invalid_argument on length mismatch or out-of-range nodes. *)

  val find_batch : t -> int array -> int array
  (** [find_batch t xs] answers [find t xs.(k)] for every [k], with the
      same per-call root cache and prefetching as {!unite_batch}.  The
      snapshot is per-element linearizable, not atomic as a whole: the
      roots returned for distinct elements may belong to different
      moments.  Quiescent callers (the phase-2 label pass of a
      connectivity driver) get a consistent forest labelling.
      @raise Invalid_argument on out-of-range nodes. *)

  val parent_of : t -> int -> int
  val is_root : t -> int -> bool
  val count_sets : t -> int
  (** Quiescent only; under the simulator these consume steps. *)

  val invariant_violations : t -> (int * int) list
  (** Pairs [(node, parent)] breaking the Lemma 3.1 order-monotonicity
      invariant (every non-root points to a larger key, ties broken upward
      by index); always empty for a correct implementation.  Quiescent
      only. *)
end
