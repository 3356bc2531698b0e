module Policy = Dsu.Find_policy
module Rng = Repro_util.Rng
module J = Repro_obs.Json
module Op = Workload.Op
module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Fc = Repro_fault.Forest_check
module Seq = Sequential.Seq_dsu
module Rsnap = Repro_recover.Snapshot
module Rrepair = Repro_recover.Repair
module Rrestore = Repro_recover.Restore
module Depoch = Repro_durable.Epoch
module Dwal = Repro_durable.Wal
module Dfuzzy = Repro_durable.Fuzzy
module Drecovery = Repro_durable.Recovery

type config = {
  n : int;
  ops_per_domain : int;
  domains : int;
  crash_domains : int;
  crash_after : int;
  stall_prob : float;
  stall_len : int;
  unite_percent : int;
  seed : int;
  fault_seed : int;
  policies : Policy.t list;
  layouts : Scalability.layout list;
  memory_order : Dsu.Memory_order.t;
      (* the parent-load ordering mode every scenario's structure uses;
         kept in the config (not the scenario cross product) so one chaos
         run A/Bs a single mode and the report says which *)
  validate : bool;
}

let default_config =
  {
    n = 4096;
    ops_per_domain = 20_000;
    domains = 8;
    crash_domains = 2;
    crash_after = 5_000;
    stall_prob = 0.01;
    stall_len = 64;
    unite_percent = 40;
    seed = 11;
    fault_seed = 7;
    policies = [ Policy.Two_try_splitting ];
    layouts = [ Scalability.Flat ];
    memory_order = Dsu.Memory_order.default;
    validate = true;
  }

type check = { check_name : string; passed : bool; detail : string }

type scenario = {
  layout : Scalability.layout;
  policy : Policy.t;
  crashed : (int * Site.t) list;
  completed : int array;
  failures : (int * string) list;
  hops : int array;
  fault_totals : Fi.totals;
  forest : Fc.report option;
  checks : check list;
  seconds : float;
}

let scenario_ok s = s.failures = [] && List.for_all (fun c -> c.passed) s.checks

let hop_budget n = 16. *. ((log (float_of_int n) /. log 2.) +. 2.)

(* One closure set per structure, so the worker loop and the audit are
   written once.  [prio] feeds Forest_check the linking order the
   structure actually uses: the immutable ids or priorities, or the packed
   ranks read live (promotions move them while a run goes on). *)
type handle = {
  unite : int -> int -> unit;
  same_set : int -> int -> bool;
  find : int -> int;
  parents : unit -> int array;
  prio : int -> int;
  snapshot : unit -> Rsnap.t;
}

let handle_of (r : Rrestore.restored) =
  {
    unite = Rrestore.unite r;
    same_set = Rrestore.same_set r;
    find = Rrestore.find r;
    parents = (fun () -> (Rrestore.snapshot r).Rsnap.parents);
    prio =
      (match r with
      | Rrestore.Native d -> Dsu.Native.id d
      | Rrestore.Growable d -> Dsu.Growable.priority d);
    snapshot = (fun () -> Rrestore.snapshot r);
  }

(* A fresh structure for a harness layout: flat (padded or not) or
   packed. *)
let fresh ~layout ~policy ~memory_order ~seed n =
  let plan =
    Dsu.Plan.of_layout ~compaction:policy ~memory_order ~backoff:true layout
  in
  Rrestore.Native (Dsu.Driver.native ~seed plan n)

let gen_ops ~n ~unite_percent ~seed ~domains ~ops_per_domain =
  Array.init domains (fun k ->
      let rng = Rng.create (seed + (1000 * k)) in
      Array.init ops_per_domain (fun _ ->
          let x = Rng.int rng n and y = Rng.int rng n in
          if Rng.int rng 100 < unite_percent then Op.Unite (x, y)
          else Op.Same_set (x, y)))

(* Crash countdowns are staggered per slot so victims fall at different
   depths of the run; every slot shares the stall/yield noise. *)
let noise_of config =
  if config.stall_prob > 0. then
    [
      Fi.rule ~prob:config.stall_prob (Fi.Stall config.stall_len);
      Fi.rule ~prob:(config.stall_prob /. 2.) Fi.Yield;
    ]
  else []

let plan_of config =
  let noise = noise_of config in
  let rules_for slot =
    if slot < config.crash_domains then
      Fi.rule ~after:(config.crash_after * (slot + 1)) Fi.Crash :: noise
    else noise
  in
  { Fi.seed = config.fault_seed; rules_for }

(* ---------- the audit ---------- *)

let mk check_name passed detail = { check_name; passed; detail }

(* Root of every node by memoized parent chasing.  Only called after the
   forest check passed, so the chains are acyclic. *)
let roots_of parents =
  let n = Array.length parents in
  let memo = Array.make n (-1) in
  let rec go i =
    if memo.(i) >= 0 then memo.(i)
    else if parents.(i) = i then (
      memo.(i) <- i;
      i)
    else begin
      let r = go parents.(i) in
      memo.(i) <- r;
      r
    end
  in
  Array.init n go

(* First pair of nodes equivalent under [a] but split by [b], if any —
   i.e. whether the [a]-partition refines the [b]-partition. *)
let refines a b =
  let tbl = Hashtbl.create 97 in
  let bad = ref None in
  Array.iteri
    (fun i ra ->
      if !bad = None then
        match Hashtbl.find_opt tbl ra with
        | None -> Hashtbl.add tbl ra (i, b.(i))
        | Some (j, rb) -> if rb <> b.(i) then bad := Some (j, i))
    a;
  !bad

(* Completed ops of one slot, in issue order, as (start, stop, op). *)
let completed_ops ~starts ~stops ~ops k =
  let acc = ref [] in
  let m = Array.length ops.(k) in
  for j = m - 1 downto 0 do
    if stops.(k).(j) >= 0 then acc := (starts.(k).(j), stops.(k).(j), ops.(k).(j)) :: !acc
  done;
  !acc

let audit ~config ~(h : handle) ~ops ~starts ~stops ~results ~cur ~interrupted =
  let n = config.n in
  let parents = h.parents () in
  let forest = Fc.check ~prio:h.prio parents in
  let forest_check =
    mk "forest" (Fc.ok forest)
      (if Fc.ok forest then "" else Format.asprintf "%a" Fc.pp forest)
  in
  if not (Fc.ok forest) then
    (* Everything below chases parent chains or trusts the partition; a
       structurally broken forest would send those checks spinning. *)
    ( Some forest,
      [
        forest_check;
        mk "find-idempotent" false "skipped: forest invalid";
        mk "completed-unites" false "skipped: forest invalid";
        mk "sameset-true" false "skipped: forest invalid";
        mk "sameset-false" false "skipped: forest invalid";
        mk "partition-sandwich" false "skipped: forest invalid";
        mk "survivors-complete" false "skipped: forest invalid";
        mk "survivor-hops" false "skipped: forest invalid";
      ] )
  else begin
    let snap_roots = roots_of parents in
    let all_completed = List.concat (List.init config.domains (completed_ops ~starts ~stops ~ops)) in
    (* find agrees with the snapshot (same classes both ways) and is stable
       when repeated — note find may compact, so this runs on the live
       structure after the snapshot was taken. *)
    let find_check =
      let find_roots = Array.init n h.find in
      let unstable = ref None in
      for i = 0 to n - 1 do
        if !unstable = None && h.find i <> find_roots.(i) then unstable := Some i
      done;
      match (refines snap_roots find_roots, refines find_roots snap_roots, !unstable) with
      | None, None, None -> mk "find-idempotent" true ""
      | Some (i, j), _, _ | _, Some (i, j), _ ->
        mk "find-idempotent" false
          (Printf.sprintf "find and snapshot disagree on nodes %d and %d" i j)
      | _, _, Some i ->
        mk "find-idempotent" false
          (Printf.sprintf "find %d changed its answer at quiescence" i)
    in
    let unites_check =
      let bad =
        List.find_opt
          (function
            | _, _, Op.Unite (x, y) -> snap_roots.(x) <> snap_roots.(y)
            | _ -> false)
          all_completed
      in
      match bad with
      | None -> mk "completed-unites" true ""
      | Some (_, _, Op.Unite (x, y)) ->
        mk "completed-unites" false
          (Printf.sprintf "completed unite (%d, %d) not connected in final forest" x y)
      | Some _ -> assert false
    in
    let true_check =
      let bad = ref None in
      Array.iteri
        (fun k row ->
          Array.iteri
            (fun j r ->
              if !bad = None && r = 1 then
                match ops.(k).(j) with
                | Op.Same_set (x, y) when snap_roots.(x) <> snap_roots.(y) ->
                  bad := Some (x, y)
                | _ -> ())
            row)
        results;
      match !bad with
      | None -> mk "sameset-true" true ""
      | Some (x, y) ->
        mk "sameset-true" false
          (Printf.sprintf "same_set (%d, %d) answered true but they end up apart" x y)
    in
    (* A false answer is wrong if unites that fully completed before the
       query was even issued had already connected its arguments: replay
       completed unites in stop-stamp order into a sequential oracle and
       test each false query at its start stamp. *)
    let false_check =
      let unites =
        List.filter_map
          (function
            | _, stop, Op.Unite (x, y) -> Some (stop, x, y)
            | _ -> None)
          all_completed
        |> List.sort compare
      in
      let queries = ref [] in
      Array.iteri
        (fun k row ->
          Array.iteri
            (fun j r ->
              if r = 0 then
                match ops.(k).(j) with
                | Op.Same_set (x, y) -> queries := (starts.(k).(j), x, y) :: !queries
                | _ -> ())
            row)
        results;
      let queries = List.sort compare !queries in
      let oracle = Seq.create n in
      let pending = ref unites in
      let bad = ref None in
      List.iter
        (fun (s, x, y) ->
          let continue = ref true in
          while !continue do
            match !pending with
            | (t, ux, uy) :: rest when t < s ->
              Seq.unite oracle ux uy;
              pending := rest
            | _ -> continue := false
          done;
          if !bad = None && Seq.same_set oracle x y then bad := Some (x, y))
        queries;
      match !bad with
      | None -> mk "sameset-false" true ""
      | Some (x, y) ->
        mk "sameset-false" false
          (Printf.sprintf
             "same_set (%d, %d) answered false after unites completed before it started had joined them"
             x y)
    in
    (* Upper bound: every edge of the final forest must be justified by a
       completed unite or by the single in-flight unite of an interrupted
       worker.  (Compaction only rewires within a class, so an interrupted
       find can never add connectivity.)  The lower bound — completed
       unites are connected — is the completed-unites check above. *)
    let sandwich_check =
      let p1 = Seq.create n in
      List.iter
        (function _, _, Op.Unite (x, y) -> Seq.unite p1 x y | _ -> ())
        all_completed;
      List.iter
        (fun k ->
          let j = cur.(k) in
          if j < config.ops_per_domain then
            match ops.(k).(j) with Op.Unite (x, y) -> Seq.unite p1 x y | _ -> ())
        interrupted;
      let bad = ref None in
      for i = 0 to n - 1 do
        if !bad = None && parents.(i) <> i && not (Seq.same_set p1 i parents.(i))
        then bad := Some i
      done;
      match !bad with
      | None -> mk "partition-sandwich" true ""
      | Some i ->
        mk "partition-sandwich" false
          (Printf.sprintf
             "edge %d -> %d is not justified by any completed or in-flight unite" i
             parents.(i))
    in
    (Some forest, [ forest_check; find_check; unites_check; true_check; false_check; sandwich_check ])
  end

(* ---------- the run ---------- *)

let validate_config c =
  if c.n < 2 then invalid_arg "Chaos: n must be >= 2";
  if c.domains < 1 then invalid_arg "Chaos: domains must be >= 1";
  if c.crash_domains < 0 || c.crash_domains > c.domains then
    invalid_arg "Chaos: crash_domains must be between 0 and domains";
  if c.ops_per_domain < 1 then invalid_arg "Chaos: ops_per_domain must be >= 1";
  if c.stall_prob < 0. || c.stall_prob > 1. then
    invalid_arg "Chaos: stall_prob must be in [0, 1]"

(* Run the given slots' op streams from their current [cur] position to the
   end.  Used for the initial run (every slot from 0) and for the
   post-restore resume (crashed slots from the op they died inside —
   re-running it is safe: [unite] is idempotent, queries are read-only). *)
let run_workers ~m ~(h : handle) ~ops ~clock ~starts ~stops ~results ~cur ~crash_site
    ~failed ~hops slots =
  let worker k () =
    Fi.enroll ~slot:k;
    (try
       for j = cur.(k) to m - 1 do
         cur.(k) <- j;
         starts.(k).(j) <- Atomic.fetch_and_add clock 1;
         (match ops.(k).(j) with
          | Op.Unite (x, y) ->
            h.unite x y;
            results.(k).(j) <- 2
          | Op.Same_set (x, y) -> results.(k).(j) <- (if h.same_set x y then 1 else 0)
          | Op.Find x ->
            ignore (h.find x);
            results.(k).(j) <- 3);
         stops.(k).(j) <- Atomic.fetch_and_add clock 1
       done;
       cur.(k) <- m
     with
    | Fi.Crashed (site, _) -> crash_site.(k) <- Some site
    | e -> failed.(k) <- Some (Printexc.to_string e));
    hops.(k) <- hops.(k) + Fi.my_hops ()
  in
  let handles = List.map (fun k -> Domain.spawn (worker k)) slots in
  List.iter Domain.join handles

let completed_counts ~domains ~stops =
  Array.init domains (fun k ->
      let c = ref 0 in
      Array.iter (fun s -> if s >= 0 then incr c) stops.(k);
      !c)

(* The per-op audit plus the run-level checks (crash plan respected,
   survivors finished, survivor hop budget). *)
let full_audit ~config ~h ~ops ~starts ~stops ~results ~cur ~crash_site ~failed
    ~completed ~hops ~crashed =
  let m = config.ops_per_domain in
  let interrupted =
    List.filter
      (fun k -> crash_site.(k) <> None || failed.(k) <> None)
      (List.init config.domains Fun.id)
  in
  let forest, checks = audit ~config ~h ~ops ~starts ~stops ~results ~cur ~interrupted in
  let plan_check =
    (* Only planned victims may crash; whether every planned victim's
       countdown was reached depends on the workload length, so unfired
       victims are not a failure. *)
    match List.find_opt (fun (k, _) -> k >= config.crash_domains) crashed with
    | None -> mk "crash-plan" true ""
    | Some (k, site) ->
      mk "crash-plan" false
        (Printf.sprintf "slot %d crashed at %s without a crash rule" k
           (Site.to_string site))
  in
  let survivors =
    List.filter
      (fun k -> crash_site.(k) = None && failed.(k) = None)
      (List.init config.domains Fun.id)
  in
  let complete_check =
    match List.find_opt (fun k -> completed.(k) < m) survivors with
    | None -> mk "survivors-complete" true ""
    | Some k ->
      mk "survivors-complete" false
        (Printf.sprintf "survivor %d completed only %d of %d ops" k completed.(k) m)
  in
  let hop_check =
    let budget = hop_budget config.n in
    let over =
      List.find_opt
        (fun k ->
          completed.(k) > 0 && float_of_int hops.(k) /. float_of_int completed.(k) > budget)
        survivors
    in
    match over with
    | None -> mk "survivor-hops" true ""
    | Some k ->
      mk "survivor-hops" false
        (Printf.sprintf "survivor %d averaged %.1f own hops/op (budget %.1f)" k
           (float_of_int hops.(k) /. float_of_int completed.(k))
           budget)
  in
  (forest, checks @ [ plan_check; complete_check; hop_check ])

let run_scenario ?(config = default_config) ~layout ~policy () =
  validate_config config;
  let { n; ops_per_domain = m; domains; unite_percent; seed; _ } = config in
  let ops = gen_ops ~n ~unite_percent ~seed ~domains ~ops_per_domain:m in
  let h =
    handle_of (fresh ~layout ~policy ~memory_order:config.memory_order ~seed n)
  in
  let clock = Atomic.make 0 in
  let starts = Array.init domains (fun _ -> Array.make m (-1)) in
  let stops = Array.init domains (fun _ -> Array.make m (-1)) in
  let results = Array.init domains (fun _ -> Array.make m (-1)) in
  let cur = Array.make domains 0 in
  let crash_site = Array.make domains None in
  let failed = Array.make domains None in
  let hops = Array.make domains 0 in
  Fi.arm (plan_of config);
  let t0 = Repro_obs.Clock.now_ns () in
  run_workers ~m ~h ~ops ~clock ~starts ~stops ~results ~cur ~crash_site ~failed ~hops
    (List.init domains Fun.id);
  let seconds = float_of_int (Repro_obs.Clock.now_ns () - t0) /. 1e9 in
  Fi.disarm ();
  let fault_totals = Fi.totals () in
  let crashed =
    List.filter_map
      (fun k -> Option.map (fun site -> (k, site)) crash_site.(k))
      (List.init domains Fun.id)
  in
  let failures =
    List.filter_map
      (fun k -> Option.map (fun msg -> (k, msg)) failed.(k))
      (List.init domains Fun.id)
  in
  let completed = completed_counts ~domains ~stops in
  let forest, checks =
    if not config.validate then (None, [])
    else
      full_audit ~config ~h ~ops ~starts ~stops ~results ~cur ~crash_site ~failed
        ~completed ~hops ~crashed
  in
  {
    layout;
    policy;
    crashed;
    completed;
    failures;
    hops;
    fault_totals;
    forest;
    checks;
    seconds;
  }

(* ---------- crash -> snapshot -> repair -> resume ---------- *)

type recovery = {
  crash_snapshot : Rsnap.t;
  snapshot_crc : int;
  fixes : Rrepair.fix list;
  resumed_slots : int list;
  resumed_ops : int;
  resumed_forest : Fc.report option;
  recovery_checks : check list;
  resume_seconds : float;
  phase1_counters : (string * int) list;
  resume_counters : (string * int) list;
}

let recovery_ok r = List.for_all (fun c -> c.passed) r.recovery_checks

let counter_samples snap =
  List.filter_map
    (fun { Repro_obs.Metrics.name; value; _ } ->
      match value with Repro_obs.Metrics.Counter_v v -> Some (name, v) | _ -> None)
    snap

(* Counters that moved since [before] — the resumed run's own contribution,
   so a report over the resumed phase does not re-count pre-crash ops. *)
let delta_counters ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let b = Option.value ~default:0 (List.assoc_opt name before) in
      if v - b <> 0 then Some (name, v - b) else None)
    after

let run_recovery_scenario ?(config = default_config) ~layout ~policy () =
  validate_config config;
  let { n; ops_per_domain = m; domains; unite_percent; seed; _ } = config in
  let ops = gen_ops ~n ~unite_percent ~seed ~domains ~ops_per_domain:m in
  let h =
    handle_of (fresh ~layout ~policy ~memory_order:config.memory_order ~seed n)
  in
  let clock = Atomic.make 0 in
  let starts = Array.init domains (fun _ -> Array.make m (-1)) in
  let stops = Array.init domains (fun _ -> Array.make m (-1)) in
  let results = Array.init domains (fun _ -> Array.make m (-1)) in
  let cur = Array.make domains 0 in
  let crash_site = Array.make domains None in
  let failed = Array.make domains None in
  let hops = Array.make domains 0 in
  (* Phase 1: the ordinary chaos run, crashes armed. *)
  Fi.arm (plan_of config);
  let t0 = Repro_obs.Clock.now_ns () in
  run_workers ~m ~h ~ops ~clock ~starts ~stops ~results ~cur ~crash_site ~failed ~hops
    (List.init domains Fun.id);
  let seconds = float_of_int (Repro_obs.Clock.now_ns () - t0) /. 1e9 in
  Fi.disarm ();
  let fault_totals = Fi.totals () in
  let crashed =
    List.filter_map
      (fun k -> Option.map (fun site -> (k, site)) crash_site.(k))
      (List.init domains Fun.id)
  in
  let failures =
    List.filter_map
      (fun k -> Option.map (fun msg -> (k, msg)) failed.(k))
      (List.init domains Fun.id)
  in
  let completed = completed_counts ~domains ~stops in
  let forest, checks =
    if not config.validate then (None, [])
    else
      full_audit ~config ~h ~ops ~starts ~stops ~results ~cur ~crash_site ~failed
        ~completed ~hops ~crashed
  in
  let phase1 =
    {
      layout;
      policy;
      crashed;
      completed;
      failures;
      hops;
      fault_totals;
      forest;
      checks;
      seconds;
    }
  in
  (* Crash-time bookkeeping: metrics accumulated so far belong to phase 1;
     the resumed run reports only its delta. *)
  let phase1_counters = counter_samples (Repro_obs.Metrics.snapshot ()) in
  (* Snapshot the crashed structure and prove the codec round-trips it. *)
  let snap = h.snapshot () in
  let codec_check =
    match
      ( Rsnap.of_binary_string (Rsnap.to_binary_string snap),
        Rsnap.of_json_string (Rsnap.to_json_string snap) )
    with
    | Ok b, Ok j when Rsnap.equal b snap && Rsnap.equal j snap ->
      mk "codec-roundtrip" true ""
    | Error e, _ | _, Error e -> mk "codec-roundtrip" false e
    | _ -> mk "codec-roundtrip" false "decoded snapshot differs from the original"
  in
  (* Repair must be a no-op — Theorem 3.4 means a crash never corrupts the
     forest — and must provably refine the crash-time partition. *)
  let repaired, fixes = Rrepair.repair snap in
  let repair_check =
    mk "repair-clean" (fixes = [])
      (if fixes = [] then ""
       else
         Printf.sprintf "crash-time snapshot needed %d fixes, e.g. %s" (List.length fixes)
           (Format.asprintf "%a" Rrepair.pp_fix (List.hd fixes)))
  in
  let refines_check =
    mk "repair-refines"
      (Rrepair.refines ~fine:repaired ~coarse:snap)
      "repaired partition does not refine the crash-time partition"
  in
  (* Restore into a fresh structure and resume the crashed slots' streams
     from the op they died inside; stall/yield noise stays armed, crashes
     do not re-fire. *)
  let h2 =
    handle_of
      (Rrestore.restore ~policy ~padded:(layout = Scalability.Padded) repaired)
  in
  let resumed_slots =
    List.filter
      (fun k -> crash_site.(k) <> None || failed.(k) <> None)
      (List.init domains Fun.id)
  in
  List.iter
    (fun k ->
      crash_site.(k) <- None;
      failed.(k) <- None)
    resumed_slots;
  let resumed_ops = List.fold_left (fun acc k -> acc + (m - cur.(k))) 0 resumed_slots in
  Fi.arm { Fi.seed = config.fault_seed + 1; rules_for = (fun _ -> noise_of config) };
  let t1 = Repro_obs.Clock.now_ns () in
  run_workers ~m ~h:h2 ~ops ~clock ~starts ~stops ~results ~cur ~crash_site ~failed
    ~hops resumed_slots;
  let resume_seconds = float_of_int (Repro_obs.Clock.now_ns () - t1) /. 1e9 in
  Fi.disarm ();
  let resume_counters =
    delta_counters ~before:phase1_counters
      ~after:(counter_samples (Repro_obs.Metrics.snapshot ()))
  in
  let completed = completed_counts ~domains ~stops in
  let resumed_forest, resume_checks =
    if not config.validate then (None, [])
    else
      full_audit ~config ~h:h2 ~ops ~starts ~stops ~results ~cur ~crash_site ~failed
        ~completed ~hops ~crashed:[]
  in
  let resumed_complete =
    match List.find_opt (fun k -> completed.(k) < m) (List.init domains Fun.id) with
    | None -> mk "resumed-complete" true ""
    | Some k ->
      mk "resumed-complete" false
        (Printf.sprintf "slot %d finished only %d of %d ops after resume" k completed.(k)
           m)
  in
  let recovery =
    {
      crash_snapshot = snap;
      snapshot_crc = Rsnap.checksum snap;
      fixes;
      resumed_slots;
      resumed_ops;
      resumed_forest;
      recovery_checks =
        codec_check :: repair_check :: refines_check :: resumed_complete :: resume_checks;
      resume_seconds;
      phase1_counters;
      resume_counters;
    }
  in
  (phase1, recovery)

let run_all ?(config = default_config) ?progress () =
  let emit s = match progress with None -> () | Some f -> f s in
  List.concat_map
    (fun layout ->
      List.map
        (fun policy ->
          let s = run_scenario ~config ~layout ~policy () in
          emit s;
          s)
        config.policies)
    config.layouts

let run_recovery_all ?(config = default_config) ?progress () =
  let emit p = match progress with None -> () | Some f -> f p in
  List.concat_map
    (fun layout ->
      List.map
        (fun policy ->
          let p = run_recovery_scenario ~config ~layout ~policy () in
          emit p;
          p)
        config.policies)
    config.layouts

(* ---------- reporting ---------- *)

let scenario_to_json (s : scenario) =
  let t = s.fault_totals in
  J.Obj
    [
      ("layout", J.String (Scalability.layout_to_string s.layout));
      ("policy", J.String (Policy.to_string s.policy));
      ("seconds", J.Float s.seconds);
      ( "crashed",
        J.List
          (List.map
             (fun (k, site) ->
               J.Obj [ ("slot", J.Int k); ("site", J.String (Site.to_string site)) ])
             s.crashed) );
      ( "failures",
        J.List
          (List.map
             (fun (k, msg) -> J.Obj [ ("slot", J.Int k); ("error", J.String msg) ])
             s.failures) );
      ("completed", J.List (Array.to_list (Array.map (fun c -> J.Int c) s.completed)));
      ("hops", J.List (Array.to_list (Array.map (fun h -> J.Int h) s.hops)));
      ( "faults",
        J.Obj
          [
            ("site_hits", J.Int t.Fi.hits);
            ("yields", J.Int t.Fi.yields);
            ("stalls", J.Int t.Fi.stalls);
            ("crashes", J.Int t.Fi.crashes);
          ] );
      ("forest", (match s.forest with None -> J.Null | Some r -> Fc.to_json r));
      ( "checks",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("name", J.String c.check_name);
                   ("ok", J.Bool c.passed);
                   ("detail", J.String c.detail);
                 ])
             s.checks) );
      ("ok", J.Bool (scenario_ok s));
    ]

let config_fields (config : config) =
  [
    ("schema", J.String "dsu-chaos/v1");
    ("n", J.Int config.n);
    ("ops_per_domain", J.Int config.ops_per_domain);
    ("domains", J.Int config.domains);
    ("crash_domains", J.Int config.crash_domains);
    ("crash_after", J.Int config.crash_after);
    ("stall_prob", J.Float config.stall_prob);
    ("stall_len", J.Int config.stall_len);
    ("unite_percent", J.Int config.unite_percent);
    ("seed", J.Int config.seed);
    ("fault_seed", J.Int config.fault_seed);
    ("memory_order", J.String (Dsu.Memory_order.to_string config.memory_order));
    ("validate", J.Bool config.validate);
  ]

let to_json ?(config = default_config) scenarios =
  J.Obj
    (config_fields config
    @ [
        ("scenarios", J.List (List.map scenario_to_json scenarios));
        ("ok", J.Bool (List.for_all scenario_ok scenarios));
      ])

let counters_to_json counters =
  J.Obj (List.map (fun (name, v) -> (name, J.Int v)) counters)

let recovery_to_json (r : recovery) =
  J.Obj
    [
      ("snapshot_crc", J.String (Printf.sprintf "%08x" r.snapshot_crc));
      ("fixes", Rrepair.fixes_to_json r.fixes);
      ("resumed_slots", J.List (List.map (fun k -> J.Int k) r.resumed_slots));
      ("resumed_ops", J.Int r.resumed_ops);
      ("resume_seconds", J.Float r.resume_seconds);
      ( "resumed_forest",
        match r.resumed_forest with None -> J.Null | Some rep -> Fc.to_json rep );
      ( "checks",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("name", J.String c.check_name);
                   ("ok", J.Bool c.passed);
                   ("detail", J.String c.detail);
                 ])
             r.recovery_checks) );
      ("phase1_counters", counters_to_json r.phase1_counters);
      ("resume_counters", counters_to_json r.resume_counters);
      ("ok", J.Bool (recovery_ok r));
    ]

let recovery_report_to_json ?(config = default_config) pairs =
  let scenario_with_recovery (s, r) =
    match scenario_to_json s with
    | J.Obj fields -> J.Obj (fields @ [ ("recovery", recovery_to_json r) ])
    | other -> other
  in
  J.Obj
    (config_fields config
    @ [
        ("scenarios", J.List (List.map scenario_with_recovery pairs));
        ( "ok",
          J.Bool (List.for_all (fun (s, r) -> scenario_ok s && recovery_ok r) pairs) );
      ])

let pp_scenario ppf (s : scenario) =
  let t = s.fault_totals in
  Format.fprintf ppf "@[<v>%s/%s: %s in %.2fs@,"
    (Scalability.layout_to_string s.layout)
    (Policy.to_string s.policy)
    (if scenario_ok s then "OK" else "FAILED")
    s.seconds;
  Format.fprintf ppf "  faults: %d site hits, %d yields, %d stalls, %d crashes@,"
    t.Fi.hits t.Fi.yields t.Fi.stalls t.Fi.crashes;
  List.iter
    (fun (k, site) ->
      Format.fprintf ppf "  crashed: slot %d at %s after %d ops@," k
        (Site.to_string site) s.completed.(k))
    s.crashed;
  List.iter
    (fun (k, msg) -> Format.fprintf ppf "  worker %d failed: %s@," k msg)
    s.failures;
  List.iter
    (fun c ->
      if not c.passed then
        Format.fprintf ppf "  check %s FAILED: %s@," c.check_name c.detail)
    s.checks;
  (match s.forest with
  | Some r when Fc.ok r ->
    Format.fprintf ppf "  forest: %d nodes, %d roots, max depth %d@," r.Fc.nodes
      r.Fc.roots r.Fc.max_depth
  | _ -> ());
  Format.fprintf ppf "@]"

let pp ppf scenarios =
  List.iter (fun s -> Format.fprintf ppf "%a@." pp_scenario s) scenarios

let pp_recovery ppf (r : recovery) =
  Format.fprintf ppf "@[<v>recovery: %s (snapshot crc %08x)@,"
    (if recovery_ok r then "OK" else "FAILED")
    r.snapshot_crc;
  Format.fprintf ppf "  resumed %d op(s) across %d slot(s) in %.2fs@," r.resumed_ops
    (List.length r.resumed_slots) r.resume_seconds;
  if r.fixes <> [] then
    Format.fprintf ppf "  repair applied %d fix(es)@," (List.length r.fixes);
  List.iter
    (fun c ->
      if not c.passed then
        Format.fprintf ppf "  check %s FAILED: %s@," c.check_name c.detail)
    r.recovery_checks;
  Format.fprintf ppf "@]"

let pp_recovery_report ppf pairs =
  List.iter
    (fun (s, r) -> Format.fprintf ppf "%a@.%a@." pp_scenario s pp_recovery r)
    pairs

(* ---------- durable drill: crash mid-snapshot and mid-group-commit ---------- *)

type durable = {
  d_kind : Rsnap.kind;
  d_policy : Policy.t;
  d_snapshots : (string * Dfuzzy.capture) list;  (* oldest first *)
  d_snap_crash : Site.t option;
  d_commit_crash : (Site.t * int) option;
  d_wal_stats : Dwal.writer_stats;
  d_tail_records : int;
  d_truncated_at : int option;
  d_recovery : Drecovery.stats option;
  d_fault_totals : Fi.totals;
  d_checks : check list;
  d_seconds : float;
  d_resume_seconds : float;
}

let durable_ok d = List.for_all (fun c -> c.passed) d.d_checks

(* Mutator slots get the usual stall/yield noise; the snapshotter (slot
   [domains]) crashes mid-way through its second fuzzy scan (the first
   scan spends [n] Snapshot_read hits, so hit [n + n/2 + 1] is halfway
   into the second), and the committer (slot [domains + 1]) crashes on
   its fourth group commit, mid-record, leaving a torn tail.  Both are
   hit-count rules, so the drill is deterministic regardless of timing. *)
let durable_plan config =
  let noise = noise_of config in
  let snap_slot = config.domains and commit_slot = config.domains + 1 in
  let rules_for slot =
    if slot = snap_slot then
      Fi.rule ~sites:[ Site.Snapshot_read ]
        ~after:(config.n + (config.n / 2))
        Fi.Crash
      :: noise
    else if slot = commit_slot then
      [ Fi.rule ~sites:[ Site.Wal_commit_mid ] ~after:3 Fi.Crash ]
    else noise
  in
  { Fi.seed = config.fault_seed; rules_for }

let temp_dir () =
  let base = Filename.temp_file "dsu-durable" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let run_durable_scenario ?(config = default_config) ?dir ~kind ~policy () =
  validate_config config;
  let { n; ops_per_domain = m; domains; unite_percent; seed; _ } = config in
  let dir = match dir with Some d -> d | None -> temp_dir () in
  let wal_path = Filename.concat dir "wal.log" in
  let ops = gen_ops ~n ~unite_percent ~seed ~domains ~ops_per_domain:m in
  (* Arm before creating the writer: arming opens a fresh inject epoch and
     drops stale enrollments, so the committer domain enrolls itself via
     [on_committer_start], which runs after this arm. *)
  Fi.arm (durable_plan config);
  let wal =
    Dwal.create_writer ~shards:(max 2 domains) ~flush_records:32
      ~flush_interval:0.0005
      ~on_committer_start:(fun () -> Fi.enroll ~slot:(domains + 1))
      wal_path
  in
  (* The durable drill runs over snapshot kinds, not harness layouts: the
     drill's point is that every layout a snapshot can restore survives a
     crash during its own fuzzy scan. *)
  let r =
    Rrestore.create ~policy ~memory_order:config.memory_order
      ~on_link:(Dwal.append wal) ~seed kind n
  in
  let h = handle_of r and fuzzy epoch = Dfuzzy.of_restored ~epoch r in
  let epoch = Dwal.epoch wal in
  let clock = Atomic.make 0 in
  let starts = Array.init domains (fun _ -> Array.make m (-1)) in
  let stops = Array.init domains (fun _ -> Array.make m (-1)) in
  let results = Array.init domains (fun _ -> Array.make m (-1)) in
  let cur = Array.make domains 0 in
  let crash_site = Array.make domains None in
  let failed = Array.make domains None in
  let hops = Array.make domains 0 in
  let mutators_done = Atomic.make false in
  let snaps = ref [] and snap_crash = ref None and snap_count = ref 0 in
  let snapshotter =
    Domain.spawn (fun () ->
        Fi.enroll ~slot:domains;
        try
          (* Keep scanning until the second scan's crash fires; the
             [< 2] clause keeps the drill deterministic even when the
             mutators drain before the snapshotter gets going. *)
          while !snap_count < 2 || not (Atomic.get mutators_done) do
            let cap = fuzzy epoch in
            incr snap_count;
            let path =
              Filename.concat dir (Printf.sprintf "snap-%03d.bin" !snap_count)
            in
            Rsnap.write_file path cap.Dfuzzy.snapshot;
            snaps := (path, cap) :: !snaps
          done
        with Fi.Crashed (site, _) -> snap_crash := Some site)
  in
  let t0 = Repro_obs.Clock.now_ns () in
  run_workers ~m ~h ~ops ~clock ~starts ~stops ~results ~cur ~crash_site ~failed
    ~hops
    (List.init domains Fun.id);
  Atomic.set mutators_done true;
  Domain.join snapshotter;
  Dwal.close wal;
  let seconds = float_of_int (Repro_obs.Clock.now_ns () - t0) /. 1e9 in
  Fi.disarm ();
  let fault_totals = Fi.totals () in
  let wal_stats = Dwal.writer_stats wal in
  let caps = List.rev !snaps in
  let completed = completed_counts ~domains ~stops in
  let final = h.snapshot () in
  let final_roots = roots_of final.Rsnap.parents in
  (* Phase-1 audit: the mutators never crash in this drill, so the whole
     workload must have survived the WAL hook and the concurrent scans. *)
  let _, phase1_checks =
    full_audit ~config ~h ~ops ~starts ~stops ~results ~cur ~crash_site ~failed
      ~completed ~hops ~crashed:[]
  in
  let crash_checks =
    [
      mk "fuzzy-crash"
        (!snap_crash = Some Site.Snapshot_read)
        (match !snap_crash with
        | Some Site.Snapshot_read -> ""
        | Some s -> "snapshotter crashed at " ^ Site.to_string s
        | None -> "snapshotter never crashed");
      mk "commit-crash"
        (match wal_stats.Dwal.ws_crashed with
        | Some (Site.Wal_commit_mid, _) -> true
        | _ -> false)
        (match wal_stats.Dwal.ws_crashed with
        | Some (Site.Wal_commit_mid, _) -> ""
        | Some (s, _) -> "committer crashed at " ^ Site.to_string s
        | None -> "committer never crashed");
      mk "snapshots-taken"
        (caps <> [])
        (if caps = [] then "no fuzzy snapshot completed before the crash" else "");
    ]
  in
  (* Per-capture checks.  Reconciliation must be a no-op for the layouts
     whose fuzzy scan is provably a forest cut (flat/growable: one
     acquire load per node, ancestors are monotone).  Packed
     scans can legitimately catch a racing promotion as a cross-node
     order violation, so there the bar is only that the repaired cut
     refines both the raw scan and the final partition. *)
  let repair_exempt =
    match kind with Rsnap.Packed -> true | Rsnap.Flat | Rsnap.Growable -> false
  in
  let cap_checks =
    let dirty =
      List.find_opt (fun (_, c) -> c.Dfuzzy.fixes <> []) caps
    in
    let repair_clean =
      if repair_exempt then
        mk "fuzzy-repair-clean" true "rank scans may race a promotion; exempt"
      else
        match dirty with
        | None -> mk "fuzzy-repair-clean" true ""
        | Some (p, c) ->
          mk "fuzzy-repair-clean" false
            (Printf.sprintf "%s needed %d reconciliation fixes" p
               (List.length c.Dfuzzy.fixes))
    in
    let refines_raw =
      match
        List.find_opt
          (fun (_, c) ->
            not (Rrepair.refines ~fine:c.Dfuzzy.snapshot ~coarse:c.Dfuzzy.raw))
          caps
      with
      | None -> mk "fuzzy-refines-raw" true ""
      | Some (p, _) ->
        mk "fuzzy-refines-raw" false
          (p ^ ": reconciled cut does not refine the raw scan")
    in
    let refines_final =
      match
        List.find_opt
          (fun (_, c) ->
            not (Rrepair.refines ~fine:c.Dfuzzy.snapshot ~coarse:final))
          caps
      with
      | None -> mk "fuzzy-refines-final" true ""
      | Some (p, _) ->
        mk "fuzzy-refines-final" false
          (p ^ ": fuzzy cut does not refine the final partition")
    in
    [ repair_clean; refines_raw; refines_final ]
  in
  let tail =
    match Dwal.read_file wal_path with Ok t -> Some t | Error _ -> None
  in
  let wal_checks =
    match tail with
    | None -> [ mk "wal-truncated" false "WAL unreadable" ]
    | Some t ->
      let torn =
        mk "wal-truncated"
          (t.Dwal.truncated_at <> None)
          (if t.Dwal.truncated_at = None then
             "commit crash left no torn tail"
           else "")
      in
      (* The epoch cut: every valid record with a strictly smaller epoch
         than a capture's stamp was linked before that capture's scan
         started, so the cut must already connect it. *)
      let bad = ref None in
      List.iter
        (fun (p, c) ->
          let sn = c.Dfuzzy.snapshot in
          if sn.Rsnap.epoch > 0 && !bad = None then begin
            let roots = roots_of sn.Rsnap.parents in
            Array.iter
              (fun (r : Dwal.record) ->
                if
                  !bad = None
                  && r.Dwal.epoch < sn.Rsnap.epoch
                  && r.Dwal.x >= 0
                  && r.Dwal.x < Array.length roots
                  && r.Dwal.y >= 0
                  && r.Dwal.y < Array.length roots
                  && roots.(r.Dwal.x) <> roots.(r.Dwal.y)
                then bad := Some (p, r))
              t.Dwal.records
          end)
        caps;
      let cut =
        match !bad with
        | None -> mk "epoch-cut" true ""
        | Some (p, r) ->
          mk "epoch-cut" false
            (Printf.sprintf
               "%s: record (%d, %d) of epoch %d not connected in the cut" p
               r.Dwal.x r.Dwal.y r.Dwal.epoch)
      in
      [ torn; cut ]
  in
  (* Recovery: newest valid snapshot + WAL tail replay, then resume the
     whole workload on the restored structure and re-audit it against the
     sequential oracle. *)
  let recovery =
    Drecovery.recover_files ~policy ~snapshots:(List.map fst caps)
      ~wal:wal_path ()
  in
  let recovery_stats, recovery_checks, resume_seconds =
    match recovery with
    | Error e -> (None, [ mk "recovery" false e ], 0.)
    | Ok (r, rstats) ->
      let contains_log =
        match tail with
        | None -> mk "recovered-contains-log" false "WAL unreadable"
        | Some t -> (
          let nr = Rrestore.n r in
          let bad = ref None in
          Array.iter
            (fun (rc : Dwal.record) ->
              if
                !bad = None
                && rc.Dwal.x >= 0
                && rc.Dwal.x < nr
                && rc.Dwal.y >= 0
                && rc.Dwal.y < nr
                && not (Rrestore.same_set r rc.Dwal.x rc.Dwal.y)
              then bad := Some rc)
            t.Dwal.records;
          match !bad with
          | None -> mk "recovered-contains-log" true ""
          | Some rc ->
            mk "recovered-contains-log" false
              (Printf.sprintf
                 "acknowledged record (%d, %d) not connected after recovery"
                 rc.Dwal.x rc.Dwal.y))
      in
      let recovered_refines =
        match refines (roots_of (Rrestore.snapshot r).Rsnap.parents) final_roots with
        | None -> mk "recovered-refines-final" true ""
        | Some (i, j) ->
          mk "recovered-refines-final" false
            (Printf.sprintf
               "recovered state joins %d and %d, the final partition does not"
               i j)
      in
      (* Resume: replay every mutator stream from scratch on the restored
         structure.  Re-running completed unites is idempotent, and the
         full audit's partition sandwich stays sound because the re-run's
         completed unites connect everything recovery restored. *)
      let h2 = handle_of r in
      let starts = Array.init domains (fun _ -> Array.make m (-1)) in
      let stops = Array.init domains (fun _ -> Array.make m (-1)) in
      let results = Array.init domains (fun _ -> Array.make m (-1)) in
      let cur = Array.make domains 0 in
      let crash_site = Array.make domains None in
      let failed = Array.make domains None in
      let hops = Array.make domains 0 in
      let clock = Atomic.make 0 in
      Fi.arm { Fi.seed = config.fault_seed + 1; rules_for = (fun _ -> noise_of config) };
      let t1 = Repro_obs.Clock.now_ns () in
      run_workers ~m ~h:h2 ~ops ~clock ~starts ~stops ~results ~cur ~crash_site
        ~failed ~hops
        (List.init domains Fun.id);
      let resume_seconds = float_of_int (Repro_obs.Clock.now_ns () - t1) /. 1e9 in
      Fi.disarm ();
      let completed = completed_counts ~domains ~stops in
      let _, resume_checks =
        full_audit ~config ~h:h2 ~ops ~starts ~stops ~results ~cur ~crash_site
          ~failed ~completed ~hops ~crashed:[]
      in
      let resumed_complete =
        match
          List.find_opt (fun k -> completed.(k) < m) (List.init domains Fun.id)
        with
        | None -> mk "resumed-complete" true ""
        | Some k ->
          mk "resumed-complete" false
            (Printf.sprintf "slot %d finished only %d of %d ops after recovery"
               k completed.(k) m)
      in
      ( Some rstats,
        mk "recovery" true "" :: contains_log :: recovered_refines
        :: resumed_complete :: resume_checks,
        resume_seconds )
  in
  {
    d_kind = kind;
    d_policy = policy;
    d_snapshots = caps;
    d_snap_crash = !snap_crash;
    d_commit_crash = wal_stats.Dwal.ws_crashed;
    d_wal_stats = wal_stats;
    d_tail_records =
      (match tail with None -> 0 | Some t -> Array.length t.Dwal.records);
    d_truncated_at =
      (match tail with None -> None | Some t -> t.Dwal.truncated_at);
    d_recovery = recovery_stats;
    d_fault_totals = fault_totals;
    d_checks = phase1_checks @ crash_checks @ cap_checks @ wal_checks @ recovery_checks;
    d_seconds = seconds;
    d_resume_seconds = resume_seconds;
  }

let all_kinds = [ Rsnap.Flat; Rsnap.Growable; Rsnap.Packed ]

let run_durable_all ?(config = default_config) ?(kinds = all_kinds) ?progress () =
  let emit d = match progress with None -> () | Some f -> f d in
  List.concat_map
    (fun kind ->
      List.map
        (fun policy ->
          let d = run_durable_scenario ~config ~kind ~policy () in
          emit d;
          d)
        config.policies)
    kinds

let durable_to_json (d : durable) =
  let t = d.d_fault_totals in
  J.Obj
    [
      ("kind", J.String (Rsnap.kind_to_string d.d_kind));
      ("policy", J.String (Policy.to_string d.d_policy));
      ("seconds", J.Float d.d_seconds);
      ("resume_seconds", J.Float d.d_resume_seconds);
      ( "snapshots",
        J.List
          (List.map
             (fun (p, c) ->
               J.Obj
                 [
                   ("path", J.String p);
                   ("epoch", J.Int c.Dfuzzy.snapshot.Rsnap.epoch);
                   ("n", J.Int c.Dfuzzy.snapshot.Rsnap.n);
                   ("fixes", J.Int (List.length c.Dfuzzy.fixes));
                   ("scan_ns", J.Int c.Dfuzzy.scan_ns);
                   ("repair_ns", J.Int c.Dfuzzy.repair_ns);
                 ])
             d.d_snapshots) );
      ( "snap_crash",
        match d.d_snap_crash with
        | None -> J.Null
        | Some s -> J.String (Site.to_string s) );
      ( "commit_crash",
        match d.d_commit_crash with
        | None -> J.Null
        | Some (s, _) -> J.String (Site.to_string s) );
      ( "wal",
        J.Obj
          [
            ("appended", J.Int d.d_wal_stats.Dwal.ws_appended);
            ("committed", J.Int d.d_wal_stats.Dwal.ws_committed);
            ("commits", J.Int d.d_wal_stats.Dwal.ws_commits);
            ("tail_records", J.Int d.d_tail_records);
            ( "truncated_at",
              match d.d_truncated_at with None -> J.Null | Some o -> J.Int o );
          ] );
      ( "recovery",
        match d.d_recovery with
        | None -> J.Null
        | Some s -> Drecovery.stats_to_json s );
      ( "faults",
        J.Obj
          [
            ("site_hits", J.Int t.Fi.hits);
            ("yields", J.Int t.Fi.yields);
            ("stalls", J.Int t.Fi.stalls);
            ("crashes", J.Int t.Fi.crashes);
          ] );
      ( "checks",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("name", J.String c.check_name);
                   ("ok", J.Bool c.passed);
                   ("detail", J.String c.detail);
                 ])
             d.d_checks) );
      ("ok", J.Bool (durable_ok d));
    ]

let durable_report_to_json ?(config = default_config) ds =
  J.Obj
    (("schema", J.String "dsu-chaos-durable/v1")
     :: List.tl (config_fields config)
    @ [
        ("scenarios", J.List (List.map durable_to_json ds));
        ("ok", J.Bool (List.for_all durable_ok ds));
      ])

let pp_durable ppf (d : durable) =
  Format.fprintf ppf "@[<v>%s/%s durable: %s in %.2fs (+%.2fs resume)@,"
    (Rsnap.kind_to_string d.d_kind)
    (Policy.to_string d.d_policy)
    (if durable_ok d then "OK" else "FAILED")
    d.d_seconds d.d_resume_seconds;
  Format.fprintf ppf
    "  wal: %d appended, %d committed in %d commits%s@,"
    d.d_wal_stats.Dwal.ws_appended d.d_wal_stats.Dwal.ws_committed
    d.d_wal_stats.Dwal.ws_commits
    (match d.d_truncated_at with
    | None -> ""
    | Some o -> Printf.sprintf ", torn tail at byte %d" o);
  Format.fprintf ppf "  snapshots: %d written%s%s@,"
    (List.length d.d_snapshots)
    (match d.d_snap_crash with
    | None -> ""
    | Some s -> ", snapshotter crashed at " ^ Site.to_string s)
    (match d.d_commit_crash with
    | None -> ""
    | Some (s, _) -> ", committer crashed at " ^ Site.to_string s);
  (match d.d_recovery with
  | None -> ()
  | Some s -> Format.fprintf ppf "  %a@," Drecovery.pp_stats s);
  List.iter
    (fun c ->
      if not c.passed then
        Format.fprintf ppf "  check %s FAILED: %s@," c.check_name c.detail)
    d.d_checks;
  Format.fprintf ppf "@]"

let pp_durable_report ppf ds =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp_durable d) ds
