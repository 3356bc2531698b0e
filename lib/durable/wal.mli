(** Append-only operation log of effective link events, with group commit.

    Every successful link CAS (the moment a unite actually merges two
    trees) appends one fixed-size record via the layouts' [on_link] hook.
    Records are {e not} the unite calls — redundant unites settle without
    a link and log nothing — but replaying the links as unites rebuilds
    the same partition, which is all connectivity recovery needs.

    {2 Write path}

    The mutator hot path is one enqueue: stamp (seq, epoch), push onto a
    per-domain-sharded staging buffer (one mutex each, domains hash to
    shards so contention is spread).  A dedicated committer domain drains
    the shards and {e group-commits}: one [write] + one [fsync] per batch,
    a batch closing when it reaches [flush_records] records or
    [flush_interval] seconds pass with work pending.  Burst cost per
    record is therefore amortized to a buffer push; the window of loss on
    a crash (RPO) is the commit window, not per-op.

    {2 On-disk format}

    Magic ["DSUWAL01"], then 37-byte records: kind byte [0x01], epoch,
    seq, x, y as 8-byte little-endian words, CRC-32 (of the preceding 33
    bytes) little-endian.  Records appear in commit order: each domain's
    records in the order it appended them (ascending [seq]), but domains
    interleave — readers must not assume seq-sorted order across them.

    {2 Torn tails}

    A crash mid-commit leaves a prefix of the batch on disk; the reader
    stops at the first record whose CRC fails (or that is cut short) and
    reports the byte offset — everything before it is trustworthy,
    everything after it is discarded ({!tail.truncated_at}).

    {2 Fault sites}

    With {!Repro_fault.Inject} armed, each commit hits
    {!Repro_fault.Site.Wal_commit_pre}, then {e flushes a partial batch}
    and hits {!Repro_fault.Site.Wal_commit_mid} (a crash here
    deterministically tears the final record), then fsyncs and hits
    {!Repro_fault.Site.Wal_commit_post}.  A {!Repro_fault.Inject.Crashed}
    raised in the committer is caught and latched ({!crashed}); the
    writer stops committing, mutators keep enqueueing unharmed — the
    crashed-committer state is exactly what the chaos drill recovers
    from. *)

type record = { seq : int; epoch : int; x : int; y : int }

val record_bytes : int
val magic : string

(** {1 Writer} *)

type writer

val create_writer :
  ?shards:int ->
  ?flush_records:int ->
  ?flush_interval:float ->
  ?epoch:Epoch.t ->
  ?on_committer_start:(unit -> unit) ->
  string ->
  writer
(** Create (truncating) the log at the given path and spawn the committer
    domain.  [shards] (default 8) staging buffers; a batch commits at
    [flush_records] (default 64) records or after [flush_interval]
    (default 2ms) seconds with work pending.  [epoch] shares an existing
    counter (else a fresh one); [on_committer_start] runs first on the
    committer domain — the chaos drill uses it to enroll the committer
    for fault injection.  @raise Invalid_argument on nonsensical knobs;
    [Sys_error] if the file cannot be created. *)

val append : writer -> child:int -> parent:int -> unit
(** Stage one link record, epoch-stamped now (call it {e after} the link
    applied — it is shaped to be passed as the layouts' [on_link] hook
    directly).  Never blocks on I/O. *)

val flush : writer -> unit
(** Block until everything appended so far is fsynced (group commit
    forced), or the committer has died ({!crashed} or {!failed}) — a dead
    committer will never advance the commit watermark, so waiting on it
    would hang forever.  Callers that need the durability guarantee must
    check {!crashed}/{!failed} after [flush] returns. *)

val close : writer -> unit
(** {!flush}, stop and join the committer, close the file.  Idempotent
    and safe under every committer state: concurrent or repeated [close]
    calls are serialized and the non-first are no-ops, a committer that
    already died (injected crash or real I/O failure) is joined without
    hanging or re-raising, and the join happens exactly once. *)

val epoch : writer -> Epoch.t
val path : writer -> string

val crashed : writer -> (Repro_fault.Site.t * int) option
(** The latched [(site, slot)] if an injected crash killed the committer. *)

val failed : writer -> exn option
(** The latched exception if anything {e other} than an injected crash
    killed the committer (disk full, closed descriptor, …).  Either latch
    means no further record will ever commit. *)

type writer_stats = {
  ws_appended : int;  (** records staged *)
  ws_committed : int;  (** records fsynced *)
  ws_commits : int;  (** group commits (= fsyncs) *)
  ws_crashed : (Repro_fault.Site.t * int) option;
}

val writer_stats : writer -> writer_stats

(** {1 Reader} *)

type tail = {
  records : record array;  (** the valid prefix, in commit order *)
  truncated_at : int option;
      (** byte offset of the first torn/corrupt record, if any *)
  total_bytes : int;
}

val empty_tail : tail

val of_string : string -> (tail, string) result
(** [Error] only for a missing/foreign magic; torn or corrupt records are
    reported via [truncated_at], never as an error. *)

val read_file : string -> (tail, string) result

val truncate_file : string -> (tail, string) result
(** {!read_file}, then physically truncate the file at the torn point (a
    no-op when the log is clean).  Returns the tail after truncation. *)

(** {1 Codec} (exposed for tests and the [wal] inspection subcommand) *)

val encode_record : record -> bytes
val decode_record : string -> int -> (record, [ `Short | `Crc | `Kind ]) result
