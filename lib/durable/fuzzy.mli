(** Fuzzy epoch snapshots: capture a consistent-enough cut of a live DSU
    {e without stopping the mutators}.

    The scan is one acquire read per parent cell while unites and finds
    keep running.  Lemma 3.1 (parents only ever move to proper ancestors
    under the same linking order) makes the scanned cut a valid forest for
    random-id and random-priority handles: priorities are immutable, so every
    scanned edge satisfies the order invariant at whatever moment it was
    read, and the cut's partition {e refines} the final one — no union is
    invented, racing unions may be absent.  For a rank-linking handle
    (kind [Packed]) a racing rank promotion can leave a cross-node order violation in the
    cut; the reconciliation pass below removes it.

    Every capture runs {!Repro_recover.Repair.repair} on the scanned cut
    (reconciliation).  For flat/growable the fix list is empty by the
    argument above — a non-empty list there would falsify Lemma 3.1 and
    the chaos drill checks exactly that.  For packed a few fixes are
    legitimate; each fix only splits sets, so the repaired cut still
    refines the final partition.

    The snapshot is stamped with the epoch obtained by {!Epoch.bump}
    {e before} the scan: every WAL record with a strictly smaller epoch is
    provably inside the cut (see {!Epoch}), so recovery replays only the
    log tail from that epoch on.  If reconciliation had to fix anything,
    the cut-containment guarantee is void and the snapshot is stamped
    epoch 0 — recovery then replays the whole log, trading replay time
    for safety.  Without [?epoch] (no WAL attached) snapshots are stamped
    0 as well. *)

type capture = {
  snapshot : Repro_recover.Snapshot.t;
      (** reconciled and epoch-stamped — the thing to {!Repro_recover.Snapshot.write_file} *)
  raw : Repro_recover.Snapshot.t;
      (** the cut exactly as scanned, for diagnostics and tests *)
  fixes : Repro_recover.Repair.fix list;
      (** reconciliation fixes; [[]] for the random-priority layouts *)
  scan_ns : int;
  repair_ns : int;
}

val of_native : ?epoch:Epoch.t -> Dsu.Native.t -> capture
(** Of kind {!Repro_recover.Snapshot.native_kind}: [Flat] for random-id
    linking, [Packed] (ranks, reconciled) for rank linking. *)

val of_growable : ?epoch:Epoch.t -> Dsu.Growable.t -> capture

val of_restored : ?epoch:Epoch.t -> Repro_recover.Restore.restored -> capture
(** Dispatch on a restored handle — what a recovered-and-resumed server
    uses for its next checkpoint. *)
