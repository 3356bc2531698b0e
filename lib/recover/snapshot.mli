(** Versioned, checksummed snapshots of a quiescent DSU memory.

    A snapshot is the raw state any handle can be rebuilt from: the
    parent array plus the per-node linking order ([prios] — the id
    permutation of a random-id {!Dsu.Native} handle (kind [Flat]), the
    ranks of a rank-linking one (kind [Packed], unpacked from the node
    words), the 62-bit random priorities of a {!Dsu.Growable}).  This is
    the repo's one snapshot codec.  All the orders
    share the algorithm's [less]: priority first, node index on ties — so
    one {!check} validates any kind against Lemma 3.1.

    Snapshots are taken at quiescence — either deliberately (checkpoint) or
    after a crash has killed some domains and the survivors have drained
    (Theorem 3.4: every surviving operation completes regardless of the
    crashed processes, so quiescence is always reachable).  A crash leaves
    at most one installed CAS per killed process and never a corrupt edge,
    so a crash-time snapshot still passes {!check}; {!Repair} exists for
    snapshots corrupted {e in storage}, not by the algorithm.

    Fuzzy snapshots ({!Repro_durable.Fuzzy}) carry a WAL [epoch]: the cut
    is guaranteed to contain every link whose WAL record has a strictly
    smaller epoch, so recovery replays the log tail from [epoch] on.
    Quiescent captures set [epoch = 0] (replay nothing, or everything —
    at quiescence the snapshot already holds all links).

    Two codecs, both carrying a CRC-32 of the same canonical body so either
    detects bit-rot:

    - binary: magic ["DSUSNAP2"], kind byte, [epoch], [n] and [capacity]
      as 8-byte little-endian, both arrays as 8-byte little-endian words,
      CRC-32 little-endian trailer;
    - JSON: schema ["dsu-snapshot/v2"] with the checksum as a field.

    Both decoders also read the previous version (["DSUSNAP1"] /
    ["dsu-snapshot/v1"], no epoch field) as [epoch = 0], and every kind
    ever written: kind byte 1 / ["boxed"] (a retired layout over the same
    parents and id permutation) decodes as {!Flat}, kind byte 3 /
    ["rank"] (a retired layout over the same parents and ranks) as
    {!Packed}.

    Decoders return [result]s — a malformed or checksum-failing file is an
    ordinary error, never an exception. *)

type kind = Flat | Growable | Packed

type t = {
  kind : kind;
  n : int;  (** elements present ([cardinal] for Growable) *)
  capacity : int;  (** slots to preallocate on restore; [n] except for Growable *)
  epoch : int;  (** WAL epoch the cut is consistent with; 0 = quiescent *)
  parents : int array;  (** length [n]; roots are self-parented *)
  prios : int array;  (** length [n]; ids / priorities / ranks, per [kind] *)
}

val with_epoch : t -> int -> t
(** The same snapshot stamped with a WAL epoch.
    @raise Invalid_argument on a negative epoch. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

(** {1 Capture} — quiescent only; see the layout's [parents_snapshot] doc. *)

val native_kind : Dsu.Native.t -> kind
(** [Packed] for a handle that links by rank ({!Dsu.Native.by_rank}),
    [Flat] for one that links by random ids. *)

val of_native : Dsu.Native.t -> t
(** Of kind {!native_kind}: [prios] holds the id permutation, or the
    ranks unpacked from the node words (restore re-packs them,
    {!Dsu.Packed.Native.of_snapshot}). *)

val of_growable : Dsu.Growable.t -> t

(** {1 Validation} *)

val check : t -> Repro_fault.Forest_check.report
(** {!Repro_fault.Forest_check.check} with this snapshot's priority order. *)

val ok : t -> bool

val checksum : t -> int
(** CRC-32 of the canonical body (shared by both codecs). *)

(** {1 Codecs} *)

val to_binary_string : t -> string
val of_binary_string : string -> (t, string) result

val to_json : t -> Repro_obs.Json.t
val of_json : Repro_obs.Json.t -> (t, string) result
val to_json_string : t -> string
val of_json_string : string -> (t, string) result

type format = Binary | Json

val write_file : ?format:format -> string -> t -> unit
(** Default {!Binary}.  Crash-atomic: the bytes are staged in a temporary
    file in the destination directory, fsynced, renamed over [path], and
    the directory is fsynced — a crash leaves the old file or the new one,
    never a torn snapshot.  Raises [Sys_error] or [Unix.Unix_error] on I/O
    failure. *)

val read_file : string -> (t, string) result
(** Auto-detects the format: a binary magic (v2 or v1) wins, otherwise
    JSON. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
