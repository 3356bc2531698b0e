module Snapshot = Repro_recover.Snapshot
module Repair = Repro_recover.Repair
module Restore = Repro_recover.Restore
module Clock = Repro_obs.Clock

type capture = {
  snapshot : Snapshot.t;
  raw : Snapshot.t;
  fixes : Repair.fix list;
  scan_ns : int;
  repair_ns : int;
}

let capture ?epoch ~kind ~capacity scan =
  let e = match epoch with Some e -> Epoch.bump e | None -> 0 in
  let t0 = Clock.now_ns () in
  let parents, prios = scan () in
  let scan_ns = Clock.now_ns () - t0 in
  let n = Array.length parents in
  let raw =
    { Snapshot.kind; n; capacity = max capacity n; epoch = e; parents; prios }
  in
  let t1 = Clock.now_ns () in
  let repaired, fixes = Repair.repair raw in
  let repair_ns = Clock.now_ns () - t1 in
  (* A repaired cut refines the final partition but may have dropped an
     edge whose record predates this epoch, so the epoch-cut guarantee is
     void: stamp 0 and recovery replays the whole log. *)
  let snapshot = if fixes = [] then repaired else Snapshot.with_epoch repaired 0 in
  { snapshot; raw; fixes; scan_ns; repair_ns }

let of_native ?epoch d =
  capture ?epoch ~kind:Snapshot.Flat ~capacity:(Dsu.Native.n d) (fun () ->
      Dsu.Native.snapshot_fuzzy d)

let of_growable ?epoch d =
  capture ?epoch ~kind:Snapshot.Growable ~capacity:(Dsu.Growable.capacity d)
    (fun () -> Dsu.Growable.snapshot_fuzzy d)

let of_packed ?epoch d =
  capture ?epoch ~kind:Snapshot.Packed ~capacity:(Dsu.Packed.Native.n d)
    (fun () -> Dsu.Packed.Native.snapshot_fuzzy d)

let of_restored ?epoch r =
  let capacity =
    match r with
    | Restore.Growable d -> Dsu.Growable.capacity d
    | _ -> Restore.n r
  in
  capture ?epoch ~kind:(Restore.kind r) ~capacity (fun () ->
      Restore.snapshot_fuzzy r)
