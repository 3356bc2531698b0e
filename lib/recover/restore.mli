(** Rebuild a live structure from a {!Snapshot.t}.

    Dispatches on the snapshot's kind to the layout's validated
    [of_snapshot] constructor; the uniform {!unite}/{!same_set}/{!find}
    dispatchers let a resumed workload drive whichever layout came back
    without caring which it was. *)

type restored =
  | Flat of Dsu.Native.t
  | Growable of Dsu.Growable.t
  | Packed of Dsu.Packed.Native.t

val restore :
  ?policy:Dsu.Find_policy.t ->
  ?early:bool ->
  ?collect_stats:bool ->
  ?padded:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  Snapshot.t ->
  restored
(** [policy] applies to every kind; [early] to Flat and Growable;
    [padded] to Flat and Packed; [on_link] (all kinds) hooks every successful link CAS — pass
    {!Repro_durable.Wal.append} to resume logging after recovery.
    @raise Invalid_argument when the snapshot fails the layout's invariant
    validation (run {!Repair.repair} first). *)

val create :
  ?policy:Dsu.Find_policy.t ->
  ?backoff:bool ->
  ?memory_order:Dsu.Memory_order.t ->
  ?padded:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  seed:int ->
  Snapshot.kind ->
  int ->
  restored
(** A fresh structure of the given kind over [n] singleton elements — the
    one constructor the service backend and the chaos drills share.
    [seed] draws the random ids (Flat) or priorities (Growable); Packed
    links by rank and ignores it.  Growable makes all [n] elements up
    front: [make_set] is not WAL-logged, so a recovered universe is the
    snapshot's.  [padded] applies to Flat and Packed. *)

val restore_result :
  ?policy:Dsu.Find_policy.t ->
  ?early:bool ->
  ?collect_stats:bool ->
  ?padded:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  Snapshot.t ->
  (restored, string) result
(** {!restore} with the validation failure as an [Error]. *)

val snapshot : restored -> Snapshot.t
(** Re-capture (quiescent only) — the round-trip proof obligation. *)

val snapshot_fuzzy : restored -> int array * int array
(** The layout's fuzzy [(parents, prios)] scan (see
    {!Dsu.Native.snapshot_fuzzy}); safe concurrent with mutators. *)

val n : restored -> int
(** Elements present ([cardinal] for Growable). *)

val unite : restored -> int -> int -> unit
val same_set : restored -> int -> int -> bool
val find : restored -> int -> int
val count_sets : restored -> int
(** Quiescent only. *)

val kind : restored -> Snapshot.kind
