(** Rebuild a live structure from a {!Snapshot.t}.

    Two handles come back: the one {!Dsu.Native.t} that both native kinds
    share ([Flat] restores random-id linking, [Packed] rank linking) and
    {!Dsu.Growable.t}.  {!restore} and {!create} are the only places a
    {!Snapshot.kind} picks a constructor; the uniform {!unite}/
    {!same_set}/{!find} dispatchers let a resumed workload drive whichever
    handle came back, and {!kind} reads the kind off the handle. *)

type restored = Native of Dsu.Native.t | Growable of Dsu.Growable.t

val restore :
  ?policy:Dsu.Find_policy.t ->
  ?early:bool ->
  ?collect_stats:bool ->
  ?padded:bool ->
  ?on_link:(child:int -> parent:int -> unit) ->
  Snapshot.t ->
  restored
(** [policy] applies to every kind; [early] to Flat and Growable;
    [padded] to Flat and Packed (both {!Native}); [on_link] (all kinds)
    hooks every successful link CAS — pass {!Repro_durable.Wal.append} to
    resume logging after recovery.
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
(** A fresh structure of the given kind over [n] singleton elements —
    what a service asked for an explicit kind and the durable chaos drill
    build (a plan's handle comes from {!Dsu.Driver.native}).
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
(** [Growable], or {!Snapshot.native_kind} of the native handle. *)
