(** The plan boundary.  {!native} turns a {!Dsu_plan} into the one
    {!Dsu_native.t} handle every layout shares; {!create} wraps that
    handle in a record of closures for plan-parametric callers (the
    connectivity pipeline, perfbench).  The extra indirect call is
    negligible on the batch entry points; per-op hot loops that care about
    the last few percent call {!Dsu_native} on the {!native} handle. *)

val native :
  ?seed:int ->
  ?collect_stats:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  Dsu_plan.t ->
  int ->
  Dsu_native.t
(** [native plan n] is the handle the plan names: random-id linking for
    [flat] and [flat-padded] (one cache line per word for the latter),
    rank linking for [packed] ({!Packed_dsu.Native.create}); compaction,
    memory order and backoff come from the plan.  [seed] feeds the random
    ids (omitted: a fresh self-seed; ignored by [packed]); [collect_stats]
    and [on_link] as in {!Dsu_native.create}.
    @raise Invalid_argument if {!Dsu_plan.validate} rejects the plan, or
    [n < 1] ([packed] additionally bounds [n] by its parent-field
    width). *)

type t = {
  n : int;
  plan : Dsu_plan.t;
  find : int -> int;
  same_set : int -> int -> bool;
  unite : int -> int -> unit;
  unite_batch : int array -> int array -> unit;
  same_set_batch : int array -> int array -> bool array;
  find_batch : int array -> int array;
  count_sets : unit -> int;  (** Quiescent only. *)
  parents_snapshot : unit -> int array;  (** Quiescent only. *)
  stats : unit -> Dsu_stats.snapshot option;
      (** [None] unless created with [~collect_stats:true]. *)
}

val create : ?plan:Dsu_plan.t -> ?seed:int -> ?collect_stats:bool -> int -> t
(** [create n] is {!native} [plan n] as closures ([plan] defaults to
    {!Dsu_plan.default}, i.e. the flat layout; [seed] to 1).
    @raise Invalid_argument as {!native}. *)
