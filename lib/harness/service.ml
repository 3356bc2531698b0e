(* Serving harness: open-loop load over Repro_service.Service, plus the
   crash-recovery drill that measures RPO and RTO.

   Load generation reuses the exact arrival schedules of the latency
   harness ([Latency.arrivals]) so the serving numbers are open-loop and
   coordinated-omission-free: every admitted op is charged from its
   *intended* arrival time, submitted with that timestamp, and the
   service echoes it back in the response — latency = completion −
   intended, however long the op sat in the ingestion queue.

   The drill is the point of the whole serving layer: crash a worker
   mid-drain and the WAL committer mid-commit (deterministic injected
   crash-stop), recover from the newest fuzzy snapshot plus the WAL tail,
   resume serving on the recovered backend, and measure

   - RPO: acked unites the recovered partition does not contain — the
     ack/durability contract (flush-before-ack) makes the only correct
     answer 0;
   - RTO: first post-recovery [Done] ack minus the moment the crash was
     first detected — the full outage window including shutdown,
     snapshot selection, replay, and restart. *)

module Svc = Repro_service.Service
module Hdr = Repro_obs.Hdr
module J = Repro_obs.Json
module Clock = Repro_obs.Clock
module Rng = Repro_util.Rng
module Wal = Repro_durable.Wal
module Recovery = Repro_durable.Recovery
module Restore = Repro_recover.Restore
module Snapshot = Repro_recover.Snapshot
module Fi = Repro_fault.Inject
module Site = Repro_fault.Site

type config = {
  n : int;  (* universe size *)
  unite_percent : int;
  find_percent : int;  (* remainder is same_set *)
  seed : int;
  generators : int;  (* load-generator domains (= client sessions) *)
  ops : int;  (* operations per generator *)
  shape : Latency.shape;
  workers : int;
  queue_capacity : int;
  batch : int;
  admission : Svc.admission;
  plan : Dsu.Plan.t;
  kind : Snapshot.kind option;
  op_deadline_ms : float;  (* 0 = no per-op deadline *)
  durable : bool;  (* attach a WAL (group commit on the drain path) *)
}

let default_config =
  {
    n = 1 lsl 14;
    unite_percent = 40;
    find_percent = 10;
    seed = 42;
    generators = 2;
    ops = 4_000;
    shape = Latency.Poisson;
    workers = 2;
    queue_capacity = 256;
    batch = 64;
    admission = Svc.Reject;
    plan = Dsu.Plan.default;
    kind = None;
    op_deadline_ms = 0.0;
    durable = false;
  }

(* Scratch directory for WALs and snapshots, same convention as Chaos. *)
let temp_dir () =
  let base = Filename.temp_file "dsu-service" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      try Unix.rmdir path with _ -> ()
    end
    else try Sys.remove path with _ -> ()

let spin_until target =
  while Clock.now_ns () < target do
    Domain.cpu_relax ()
  done

let make_ops ~n ~unite_percent ~find_percent ~ops ~seed =
  let rng = Rng.create seed in
  Array.init ops (fun _ ->
      let r = Rng.int rng 100 in
      let x = Rng.int rng n in
      if r < unite_percent then Svc.Unite (x, Rng.int rng n)
      else if r < unite_percent + find_percent then Svc.Find x
      else Svc.Same_set (x, Rng.int rng n))

let service_config (c : config) : Svc.config =
  {
    Svc.n = c.n;
    workers = c.workers;
    clients = c.generators;
    queue_capacity = c.queue_capacity;
    batch = c.batch;
    admission = c.admission;
    plan = c.plan;
    seed = c.seed;
    snapshot_dir = None;
    snapshot_interval = Svc.default_config.Svc.snapshot_interval;
  }

(* ------------------------------------------------------------- sweep *)

type point = {
  rate : float;  (* offered arrivals/sec per generator *)
  offered_rate : float;
  target_ops : int;
  submitted : int;
  accepted : int;
  rejected : int;  (* admission backpressure: Queue_full / deadline *)
  acked : int;
  shed : int;
  timed_out : int;
  failed : int;
  lost : int;  (* admitted, never answered within the end drain *)
  duration_s : float;
  achieved_rate : float;  (* acked ops per second *)
  latency : Hdr.snapshot;  (* completion − intended arrival *)
  max_depth : int;  (* deepest ingestion queue seen at submit *)
  depth_bound_ok : bool;  (* max_depth ≤ queue_capacity *)
  accounted_ok : bool;
      (* accepted = acked+shed+timed_out+failed+lost, no phantom or
         duplicate responses, no completion-lane displacement *)
  saturated : bool;
}

type tally = {
  mutable g_submitted : int;
  mutable g_accepted : int;
  mutable g_rejected : int;
  mutable g_acked : int;
  mutable g_shed : int;
  mutable g_timed_out : int;
  mutable g_failed : int;
  mutable g_phantom : int;  (* responses whose id we never admitted *)
}

let run_point ~config ~rate () =
  if rate <= 0.0 then invalid_arg "Service.run_point: rate must be positive";
  if config.generators < 1 || config.ops < 1 then
    invalid_arg "Service.run_point: generators and ops must be positive";
  if
    config.unite_percent < 0 || config.find_percent < 0
    || config.unite_percent + config.find_percent > 100
  then invalid_arg "Service.run_point: op mix percentages must fit in 100";
  let dir = if config.durable then Some (temp_dir ()) else None in
  let wal =
    Option.map (fun d -> Wal.create_writer (Filename.concat d "wal.log")) dir
  in
  let svc = Svc.create ?wal ?kind:config.kind (service_config config) in
  let worker k =
    let offsets =
      Latency.arrivals ~shape:config.shape ~rate ~ops:config.ops
        ~seed:(config.seed + (1000 * k) + 1)
    in
    let ops =
      make_ops ~n:config.n ~unite_percent:config.unite_percent
        ~find_percent:config.find_percent ~ops:config.ops
        ~seed:(config.seed + (1000 * k) + 2)
    in
    let lat = Hdr.create ~sharded:false () in
    Hdr.materialize lat;
    let t =
      {
        g_submitted = 0;
        g_accepted = 0;
        g_rejected = 0;
        g_acked = 0;
        g_shed = 0;
        g_timed_out = 0;
        g_failed = 0;
        g_phantom = 0;
      }
    in
    let pending = Hashtbl.create 1024 in
    fun () ->
      let epoch = Clock.now_ns () in
      let last_done = ref epoch in
      let drain () =
        List.iter
          (fun (r : Svc.response) ->
            if not (Hashtbl.mem pending r.Svc.r_id) then
              t.g_phantom <- t.g_phantom + 1
            else begin
              Hashtbl.remove pending r.Svc.r_id;
              match r.Svc.r_outcome with
              | Svc.Done _ ->
                t.g_acked <- t.g_acked + 1;
                Hdr.observe lat
                  (Stdlib.max 0 (r.Svc.r_completed_ns - r.Svc.r_intended_ns));
                if r.Svc.r_completed_ns > !last_done then
                  last_done := r.Svc.r_completed_ns
              | Svc.Shed -> t.g_shed <- t.g_shed + 1
              | Svc.Timed_out -> t.g_timed_out <- t.g_timed_out + 1
              | Svc.Failed _ -> t.g_failed <- t.g_failed + 1
            end)
          (Svc.poll svc ~session:k)
      in
      for i = 0 to config.ops - 1 do
        let intended = epoch + offsets.(i) in
        spin_until intended;
        let deadline_ns =
          if config.op_deadline_ms > 0.0 then
            intended + int_of_float (config.op_deadline_ms *. 1e6)
          else 0
        in
        t.g_submitted <- t.g_submitted + 1;
        (match
           Svc.submit svc ~intended_ns:intended ~deadline_ns ~session:k ops.(i)
         with
        | Svc.Enqueued id ->
          t.g_accepted <- t.g_accepted + 1;
          Hashtbl.replace pending id ()
        | Svc.Rejected _ -> t.g_rejected <- t.g_rejected + 1);
        drain ()
      done;
      (* end drain: every admitted op owes exactly one response *)
      let give_up = Clock.now_ns () + 2_000_000_000 in
      while Hashtbl.length pending > 0 && Clock.now_ns () < give_up do
        drain ();
        if Hashtbl.length pending > 0 then Unix.sleepf 0.0002
      done;
      let lost = Hashtbl.length pending in
      (Hdr.snap lat, t, Stdlib.max 1 (!last_done - epoch), lost)
  in
  (* Build generators (schedules, op streams) before spawning so domain
     start-up cost is on no schedule. *)
  let bodies = List.init config.generators worker in
  let handles = List.map Domain.spawn bodies in
  let results = List.map Domain.join handles in
  Svc.stop svc;
  let st = Svc.stats svc in
  Option.iter Wal.close wal;
  Option.iter rmrf dir;
  let sum f = List.fold_left (fun acc (_, t, _, _) -> acc + f t) 0 results in
  let submitted = sum (fun t -> t.g_submitted) in
  let accepted = sum (fun t -> t.g_accepted) in
  let rejected = sum (fun t -> t.g_rejected) in
  let acked = sum (fun t -> t.g_acked) in
  let shed = sum (fun t -> t.g_shed) in
  let timed_out = sum (fun t -> t.g_timed_out) in
  let failed = sum (fun t -> t.g_failed) in
  let phantom = sum (fun t -> t.g_phantom) in
  let lost = List.fold_left (fun acc (_, _, _, l) -> acc + l) 0 results in
  let latency =
    List.fold_left (fun acc (l, _, _, _) -> Hdr.merge acc l) Hdr.empty results
  in
  let duration_s =
    float_of_int
      (List.fold_left (fun acc (_, _, d, _) -> Stdlib.max acc d) 1 results)
    /. 1e9
  in
  let offered_rate = rate *. float_of_int config.generators in
  let achieved_rate = float_of_int acked /. duration_s in
  {
    rate;
    offered_rate;
    target_ops = config.generators * config.ops;
    submitted;
    accepted;
    rejected;
    acked;
    shed;
    timed_out;
    failed;
    lost;
    duration_s;
    achieved_rate;
    latency;
    max_depth = st.Svc.s_max_depth;
    depth_bound_ok = st.Svc.s_max_depth <= config.queue_capacity;
    accounted_ok =
      phantom = 0
      && accepted = acked + shed + timed_out + failed + lost
      && st.Svc.s_displaced = 0;
    saturated = achieved_rate < 0.95 *. offered_rate;
  }

let sweep ~config ~rates () =
  List.map (fun rate -> run_point ~config ~rate ()) rates

let knee points =
  List.fold_left
    (fun acc p ->
      if p.saturated then acc
      else
        match acc with
        | Some r when r >= p.offered_rate -> acc
        | _ -> Some p.offered_rate)
    None points

(* ------------------------------------------------------------- drill *)

type check = { c_name : string; c_passed : bool; c_detail : string }

type drill = {
  d_kind : Snapshot.kind;
  d_submitted : int;
  d_acked : int;
  d_acked_unites : int;
  d_rpo_lost : int;  (* acked unites missing after recovery; must be 0 *)
  d_rto_ns : int;  (* first post-recovery ack − crash detection *)
  d_recovery : Recovery.stats option;
  d_checks : check list;
  d_passed : bool;
}

let check name passed detail = { c_name = name; c_passed = passed; c_detail = detail }

(* Crash a worker mid-drain and the committer mid-commit, recover, resume.

   Fault plan: worker slot 0 crashes on its 5th non-empty drain attempt
   ([Queue_deq_cas] is hit only when the queue has work, so the count is
   in batches, not idle polls); the committer (enrolled as slot
   [workers]) crashes on its 12th group commit at [Wal_commit_mid],
   deterministically tearing the final record of that batch.  Both
   crashes land with acked traffic before, between, and after them. *)
let drill ~config ~kind () =
  let workers = Stdlib.max 2 config.workers in
  let dir = temp_dir () in
  let wal_path = Filename.concat dir "wal.log" in
  Fi.arm
    {
      Fi.seed = config.seed;
      rules_for =
        (fun slot ->
          if slot = 0 then
            [ Fi.rule ~sites:[ Site.Queue_deq_cas ] ~after:4 Fi.Crash ]
          else if slot = workers then
            [ Fi.rule ~sites:[ Site.Wal_commit_mid ] ~after:11 Fi.Crash ]
          else []);
    };
  let wal =
    Wal.create_writer ~flush_records:32 ~flush_interval:0.0005
      ~on_committer_start:(fun () -> Fi.enroll ~slot:workers)
      wal_path
  in
  let scfg =
    {
      (service_config config) with
      Svc.workers;
      clients = workers;
      admission = Svc.Block 0.05;
      snapshot_dir = Some dir;
      snapshot_interval = 0.005;
    }
  in
  let svc =
    Svc.create ~wal ~on_worker_start:(fun k -> Fi.enroll ~slot:k) ~kind scfg
  in
  let rng = Rng.create (config.seed + 17) in
  let pending : (int, Svc.op) Hashtbl.t = Hashtbl.create 1024 in
  let acked_unites = ref [] in
  let acked = ref 0 in
  let submitted = ref 0 in
  let t_crash = ref 0 in
  let drain s =
    List.iter
      (fun (r : Svc.response) ->
        (match (Hashtbl.find_opt pending r.Svc.r_id, r.Svc.r_outcome) with
        | Some (Svc.Unite (x, y)), Svc.Done _ ->
          acked_unites := (x, y) :: !acked_unites
        | _ -> ());
        (match r.Svc.r_outcome with Svc.Done _ -> incr acked | _ -> ());
        Hashtbl.remove pending r.Svc.r_id)
      (Svc.poll svc ~session:s)
  in
  (* Phase 1: serve until both crashes have been detected (wall-guarded). *)
  let wall_deadline = Clock.now_ns () + 10_000_000_000 in
  let budget = 200_000 in
  let finished = ref false in
  while not !finished do
    let h = Svc.health svc in
    let wd = h.Svc.h_dead_workers <> [] in
    let cd = h.Svc.h_committer_dead in
    if (wd || cd) && !t_crash = 0 then t_crash := Clock.now_ns ();
    if (wd && cd) || !submitted >= budget || Clock.now_ns () > wall_deadline
    then finished := true
    else begin
      (* route around workers already known dead: their ops would only
         block the admission deadline and die unacknowledged anyway *)
      let dead = List.map fst h.Svc.h_dead_workers in
      let session =
        let rec pick k =
          let c = (!submitted + k) mod workers in
          if k < workers && List.mem c dead then pick (k + 1) else c
        in
        pick 0
      in
      let x = Rng.int rng config.n and y = Rng.int rng config.n in
      let op =
        if Rng.int rng 100 < 70 then Svc.Unite (x, y) else Svc.Same_set (x, y)
      in
      incr submitted;
      (match Svc.submit svc ~session op with
      | Svc.Enqueued id -> Hashtbl.replace pending id op
      | Svc.Rejected _ -> ());
      for s = 0 to workers - 1 do
        drain s
      done
    end
  done;
  (* collect responses still in flight from the surviving paths *)
  let settle = Clock.now_ns () + 200_000_000 in
  while Clock.now_ns () < settle do
    for s = 0 to workers - 1 do
      drain s
    done;
    Unix.sleepf 0.0005
  done;
  let health1 = Svc.health svc in
  Svc.stop svc;
  Wal.close wal;
  (* exercised in anger: the committer is dead, close must neither hang
     nor double-join (the hardened Wal shutdown path) *)
  Fi.disarm ();
  let snapshots = Svc.snapshot_files svc in
  let wal2 = Wal.create_writer (Filename.concat dir "wal-resume.log") in
  let padded = config.plan.Dsu.Plan.layout = Dsu.Plan.Padded in
  let recovered =
    Recovery.recover_files ~policy:config.plan.Dsu.Plan.compaction ~padded
      ~on_link:(fun ~child ~parent -> Wal.append wal2 ~child ~parent)
      ~snapshots ~wal:wal_path ()
  in
  let base_checks =
    [
      check "worker-crashed" (health1.Svc.h_dead_workers <> []) "a worker died mid-drain";
      check "committer-crashed" health1.Svc.h_committer_dead
        "the WAL committer died mid-commit";
      check "acked-traffic"
        (!acked > 0 && !acked_unites <> [])
        (Printf.sprintf "%d acks (%d unites) before/around the crashes" !acked
           (List.length !acked_unites));
      check "snapshots-present" (snapshots <> [])
        (Printf.sprintf "%d checkpoint(s)" (List.length snapshots));
    ]
  in
  match recovered with
  | Error e ->
    Wal.close wal2;
    rmrf dir;
    let checks = base_checks @ [ check "recovered" false e ] in
    {
      d_kind = kind;
      d_submitted = !submitted;
      d_acked = !acked;
      d_acked_unites = List.length !acked_unites;
      d_rpo_lost = List.length !acked_unites;
      d_rto_ns = 0;
      d_recovery = None;
      d_checks = checks;
      d_passed = false;
    }
  | Ok (restored, rstats) ->
    let rpo_lost =
      List.length
        (List.filter
           (fun (x, y) -> not (Restore.same_set restored x y))
           !acked_unites)
    in
    let audit1 = Snapshot.ok (Restore.snapshot restored) in
    (* Resume serving on the recovered backend, logging to the fresh WAL. *)
    let dir2 = Filename.concat dir "resume" in
    Unix.mkdir dir2 0o700;
    let scfg2 = { scfg with Svc.snapshot_dir = Some dir2 } in
    let svc2 = Svc.create ~backend:restored ~wal:wal2 scfg2 in
    let rto = ref 0 in
    let resume_deadline = Clock.now_ns () + 5_000_000_000 in
    let sub2 = ref 0 in
    while !rto = 0 && Clock.now_ns () < resume_deadline do
      let x = Rng.int rng config.n and y = Rng.int rng config.n in
      (match Svc.submit svc2 ~session:(!sub2 mod workers) (Svc.Unite (x, y)) with
      | Svc.Enqueued _ -> incr sub2
      | Svc.Rejected _ -> ());
      for s = 0 to workers - 1 do
        List.iter
          (fun (r : Svc.response) ->
            match r.Svc.r_outcome with
            | Svc.Done _ when !rto = 0 && !t_crash > 0 ->
              rto := r.Svc.r_completed_ns - !t_crash
            | _ -> ())
          (Svc.poll svc2 ~session:s)
      done
    done;
    Svc.stop svc2;
    (* unites only ever merge, so everything acked before the crash must
       still hold after the resumed service has served fresh traffic *)
    let survived =
      List.for_all
        (fun (x, y) -> Restore.same_set (Svc.backend svc2) x y)
        !acked_unites
    in
    let audit2 = Snapshot.ok (Restore.snapshot (Svc.backend svc2)) in
    Wal.close wal2;
    rmrf dir;
    let checks =
      base_checks
      @ [
          check "recovered" true
            (Printf.sprintf "replayed %d record(s) from epoch %d"
               rstats.Recovery.replayed rstats.Recovery.from_epoch);
          check "rpo-zero" (rpo_lost = 0)
            (Printf.sprintf "%d acked unite(s) lost" rpo_lost);
          check "audit-post-recovery" audit1
            "recovered forest passes the order invariant";
          check "resumed-ack" (!rto > 0)
            (Printf.sprintf "first post-recovery ack after %.3f ms"
               (float_of_int !rto /. 1e6));
          check "acked-survive-resume" survived
            "pre-crash acked unites still united after resumed serving";
          check "audit-post-resume" audit2
            "forest passes the order invariant after resumed serving";
        ]
    in
    {
      d_kind = kind;
      d_submitted = !submitted;
      d_acked = !acked;
      d_acked_unites = List.length !acked_unites;
      d_rpo_lost = rpo_lost;
      d_rto_ns = !rto;
      d_recovery = Some rstats;
      d_checks = checks;
      d_passed = List.for_all (fun c -> c.c_passed) checks;
    }

let drill_all ~config () =
  List.map
    (fun kind -> drill ~config ~kind ())
    [ Snapshot.Flat; Snapshot.Growable; Snapshot.Packed ]

(* -------------------------------------------------------------- JSON *)

let hdr_fields (h : Hdr.snapshot) =
  [
    ("count", J.Int h.Hdr.count);
    ("mean_ns", J.Float (Hdr.mean h));
    ("min_ns", J.Int h.Hdr.min);
    ("p50_ns", J.Int (Hdr.quantile h 0.50));
    ("p90_ns", J.Int (Hdr.quantile h 0.90));
    ("p99_ns", J.Int (Hdr.quantile h 0.99));
    ("p999_ns", J.Int (Hdr.quantile h 0.999));
    ("max_ns", J.Int h.Hdr.max);
  ]

let point_json p =
  J.Obj
    [
      ("arrival_rate_per_gen", J.Float p.rate);
      ("offered_rate", J.Float p.offered_rate);
      ("target_ops", J.Int p.target_ops);
      ("submitted", J.Int p.submitted);
      ("accepted", J.Int p.accepted);
      ("rejected", J.Int p.rejected);
      ("acked", J.Int p.acked);
      ("shed", J.Int p.shed);
      ("timed_out", J.Int p.timed_out);
      ("failed", J.Int p.failed);
      ("lost", J.Int p.lost);
      ("duration_s", J.Float p.duration_s);
      ("achieved_rate", J.Float p.achieved_rate);
      ("max_depth", J.Int p.max_depth);
      ("depth_bound_ok", J.Bool p.depth_bound_ok);
      ("accounted_ok", J.Bool p.accounted_ok);
      ("saturated", J.Bool p.saturated);
      ("latency", J.Obj (hdr_fields p.latency));
    ]

let check_json c =
  J.Obj
    [
      ("name", J.String c.c_name);
      ("passed", J.Bool c.c_passed);
      ("detail", J.String c.c_detail);
    ]

let drill_json d =
  J.Obj
    [
      ("kind", J.String (Snapshot.kind_to_string d.d_kind));
      ("submitted", J.Int d.d_submitted);
      ("acked", J.Int d.d_acked);
      ("acked_unites", J.Int d.d_acked_unites);
      ("rpo_lost", J.Int d.d_rpo_lost);
      ("rto_ns", J.Int d.d_rto_ns);
      ( "recovery",
        match d.d_recovery with
        | Some s -> Recovery.stats_to_json s
        | None -> J.Null );
      ("checks", J.List (List.map check_json d.d_checks));
      ("passed", J.Bool d.d_passed);
    ]

let to_json config ~points ~drills =
  J.Obj
    [
      ("schema", J.String "dsu-service/v1");
      ("n", J.Int config.n);
      ("unite_percent", J.Int config.unite_percent);
      ("find_percent", J.Int config.find_percent);
      ("seed", J.Int config.seed);
      ("generators", J.Int config.generators);
      ("ops_per_generator", J.Int config.ops);
      ("shape", J.String (Latency.shape_to_string config.shape));
      ("workers", J.Int config.workers);
      ("queue_capacity", J.Int config.queue_capacity);
      ("batch", J.Int config.batch);
      ("admission", J.String (Svc.admission_to_string config.admission));
      ("plan", J.String (Dsu.Plan.to_string config.plan));
      ( "kind",
        J.String
          (Snapshot.kind_to_string
             (match config.kind with
             | Some k -> k
             | None when config.plan.Dsu.Plan.linking = Dsu.Plan.By_rank ->
               Snapshot.Packed
             | None -> Snapshot.Flat)) );
      ("durable", J.Bool config.durable);
      ("points", J.List (List.map point_json points));
      ( "knee_rate",
        match knee points with Some r -> J.Float r | None -> J.Null );
      ("drills", J.List (List.map drill_json drills));
    ]

(* ------------------------------------------------------------ pretty *)

let pp_point ppf p =
  Format.fprintf ppf
    "rate %8.0f/s  acked %8.0f/s  p99 %9.3f ms  depth %4d/%s  rej %5d  \
     shed %4d  %s%s"
    p.offered_rate p.achieved_rate
    (float_of_int (Hdr.quantile p.latency 0.99) /. 1e6)
    p.max_depth
    (if p.depth_bound_ok then "ok" else "OVER")
    p.rejected p.shed
    (if p.saturated then "SATURATED" else "ok")
    (if p.accounted_ok then "" else "  UNACCOUNTED")

let pp_table ppf points =
  Format.fprintf ppf "serving sweep (open-loop, intended-start accounting)@.";
  List.iter (fun p -> Format.fprintf ppf "  %a@." pp_point p) points;
  match knee points with
  | Some r -> Format.fprintf ppf "  saturation knee: %.0f ops/s@." r
  | None -> Format.fprintf ppf "  saturation knee: below the swept range@."

let pp_drill ppf d =
  Format.fprintf ppf "drill %-8s %s  acked %d (%d unites)  RPO lost %d  RTO %.3f ms@."
    (Snapshot.kind_to_string d.d_kind)
    (if d.d_passed then "PASS" else "FAIL")
    d.d_acked d.d_acked_unites d.d_rpo_lost
    (float_of_int d.d_rto_ns /. 1e6);
  List.iter
    (fun c ->
      Format.fprintf ppf "    [%s] %-22s %s@."
        (if c.c_passed then "ok" else "FAIL")
        c.c_name c.c_detail)
    d.d_checks
