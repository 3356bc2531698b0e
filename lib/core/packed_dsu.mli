(** Concurrent linking by rank (Section 7): {!Dsu_algorithm.Make} with the
    [By_rank] linking rule over the one {!Dsu_algorithm.Word} per node —
    [(rank, parent)] in fixed bit fields, so link and split each stay a
    single CAS and every unpack is a mask or a shift.  Linking is by rank
    (ties by node index, the winner promoted by a best-effort CAS), so the
    bounds need no independence assumption.  See docs/PERFORMANCE.md for
    the measured numbers. *)

(** {2 Word layout}

    The shared {!Dsu_algorithm.Word} codec, exposed for tests, the
    snapshot codec and documentation; all pure. *)

include module type of Dsu_algorithm.Word

(** The {!Dsu_native} handle under rank linking: same type, same
    operations and telemetry wrappers; only the constructors and the rank
    accessors are its own.  Safe from any number of domains. *)
module Native : sig
  type t = Dsu_native.t

  val create :
    ?policy:Find_policy.t ->
    ?backoff:bool ->
    ?memory_order:Memory_order.t ->
    ?collect_stats:bool ->
    ?padded:bool ->
    ?on_link:(child:int -> parent:int -> unit) ->
    int ->
    t
  (** [policy] (default two-try splitting) selects the find compaction
      rule; [memory_order] as in {!Dsu_native.create} (default
      {!Memory_order.Relaxed_reads}); [padded] spreads one word per cache
      line; [on_link] fires after every successful link CAS (the WAL hook
      point, {!Repro_durable.Wal}).
      @raise Invalid_argument unless [1 <= n <= max_nodes]. *)

  val of_snapshot :
    ?policy:Find_policy.t ->
    ?backoff:bool ->
    ?memory_order:Memory_order.t ->
    ?collect_stats:bool ->
    ?padded:bool ->
    ?on_link:(child:int -> parent:int -> unit) ->
    parents:int array ->
    ranks:int array ->
    unit ->
    t
  (** A fresh structure with the given forest and ranks packed into
      words.  @raise Invalid_argument on length mismatch, out-of-range
      parents, ranks outside the bit field, or parents violating the
      [(rank, index)] order. *)

  val rank_of : t -> int -> int
  val ranks_snapshot : t -> int array

  val snapshot_fuzzy : t -> int array * int array
  (** Fuzzy (non-quiescent) [(parents, ranks)] scan — one word read per
      node with {!Repro_fault.Site.Snapshot_read} hits; racing rank
      promotions can leave cross-node [(rank, index)] order violations
      for the {!Repro_durable.Fuzzy} reconciliation pass to repair: a
      child scanned after a tie-break link whose parent's word was
      scanned before the promotion.  See {!Dsu_native.snapshot_fuzzy}. *)

  (** {3 Shared with {!Dsu_native}} *)

  val n : t -> int
  val find : t -> int -> int
  val same_set : t -> int -> int -> bool
  val unite : t -> int -> int -> unit
  val unite_batch : t -> int array -> int array -> unit
  val same_set_batch : t -> int array -> int array -> bool array
  val find_batch : t -> int array -> int array
  val parent_of : t -> int -> int
  val is_root : t -> int -> bool
  val count_sets : t -> int
  val stats : t -> Dsu_stats.snapshot
  val invariant_violations : t -> (int * int) list
  val memory_order : t -> Memory_order.t
  val parents_snapshot : t -> int array
end

(** Simulator instantiation over {!Dsu_sim.Sim_memory} (backoff off,
    two-try splitting unless [policy] says otherwise); see {!Dsu_sim} for
    the usage pattern.  Memory cell [i] holds node [i]'s word — decode
    with {!parent_of_word}. *)
module Sim : sig
  type t

  val mem_size : int -> int
  val init : int -> int -> int
  val handle : ?policy:Find_policy.t -> int -> t
  val find : t -> int -> int
  val same_set : t -> int -> int -> bool
  val unite : t -> int -> int -> unit
  val rank_of : t -> int -> int
  val parent_of : t -> int -> int
  val stats : t -> Dsu_stats.snapshot

  val same_set_op : t -> int -> int -> unit -> unit
  (** Closure for {!Apram.Sim.run_ops}, recorded in the history. *)

  val unite_op : t -> int -> int -> unit -> unit
end
