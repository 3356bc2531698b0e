(* Tests for the serving layer: the bounded MPMC queue (sequential oracle,
   multi-domain stress, fault-injection histories), the service's
   backpressure accounting, and a miniature crash-recovery drill. *)

module Q = Repro_service.Bounded_queue
module Svc = Repro_service.Service
module Hsvc = Harness.Service
module Fi = Repro_fault.Inject
module Site = Repro_fault.Site
module Rng = Repro_util.Rng
module Clock = Repro_obs.Clock

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------- sequential oracle *)

(* Random interleaving of enqueue/dequeue attempts against a stdlib Queue
   bounded by hand: every accept/reject decision and every dequeued value
   must match FIFO order and the capacity bound exactly. *)
let test_queue_oracle () =
  let rng = Rng.create 11 in
  let cap = 1 + Rng.int rng 8 in
  let q = Q.create cap in
  let oracle = Queue.create () in
  for i = 0 to 4_999 do
    if Rng.int rng 100 < 55 then begin
      let accepted = Q.try_enqueue q i in
      let should = Queue.length oracle < cap in
      check Alcotest.bool "admission matches capacity" should accepted;
      if accepted then Queue.push i oracle
    end
    else
      match Q.dequeue_opt q with
      | Some v -> check Alcotest.int "FIFO order" (Queue.pop oracle) v
      | None ->
        check Alcotest.bool "empty agrees" true (Queue.is_empty oracle)
  done;
  check Alcotest.int "final length" (Queue.length oracle) (Q.length q)

let test_queue_batch_oracle () =
  let rng = Rng.create 12 in
  let q = Q.create 16 in
  let oracle = Queue.create () in
  for i = 0 to 1_999 do
    if Rng.int rng 100 < 60 then begin
      if Q.try_enqueue q i then Queue.push i oracle
    end
    else begin
      let max = 1 + Rng.int rng 5 in
      let got = Q.dequeue_batch q ~max in
      check Alcotest.bool "batch bounded" true (List.length got <= max);
      List.iter
        (fun v -> check Alcotest.int "batch FIFO" (Queue.pop oracle) v)
        got
    end
  done

let test_queue_shed () =
  let q = Q.create 3 in
  for i = 0 to 2 do
    check Alcotest.bool "fills" true (Q.try_enqueue q i)
  done;
  check Alcotest.bool "full rejects" false (Q.try_enqueue q 99);
  (* shed admits by displacing the oldest, never silently *)
  check Alcotest.(option int) "displaces oldest" (Some 0) (Q.shed_enqueue q 3);
  check Alcotest.(option int) "no displacement with room"
    None
    (match Q.dequeue_opt q with
    | Some 1 -> Q.shed_enqueue q 4
    | _ -> Alcotest.fail "expected head 1");
  check Alcotest.int "capacity held" 3 (Q.length q);
  let drained = Q.dequeue_batch q ~max:10 in
  check Alcotest.(list int) "FIFO after shed" [ 2; 3; 4 ] drained

let test_queue_deadline () =
  let q = Q.create 1 in
  check Alcotest.bool "admits" true (Q.try_enqueue q 0);
  let t0 = Clock.now_ns () in
  let ok = Q.enqueue_until q ~deadline_ns:(t0 + 2_000_000) 1 in
  check Alcotest.bool "full queue times out" false ok;
  check Alcotest.bool "waited for the deadline" true
    (Clock.now_ns () - t0 >= 2_000_000);
  ignore (Q.dequeue_opt q);
  check Alcotest.bool "admits after room"
    true
    (Q.enqueue_until q ~deadline_ns:(Clock.now_ns () + 1_000_000) 1)

(* -------------------------------------------------- 4-domain stress *)

(* 2 producers x 2 consumers over a small ring: no op lost, none
   duplicated, and each producer's values are consumed in its own order
   (per-producer FIFO — the queue is MPMC so cross-producer order is
   unconstrained). *)
let run_queue_stress () =
  let per_producer = 5_000 in
  let producers = 2 and consumers = 2 in
  let q = Q.create 8 in
  (* on a single-core box spinning domains starve each other for whole
     scheduler quanta; sleep yields the OS thread instead *)
  let yield () = Unix.sleepf 0.00002 in
  let produce p () =
    (* tag values with the producer id in the low bit *)
    for i = 0 to per_producer - 1 do
      let v = (i * producers) + p in
      while not (Q.try_enqueue q v) do
        yield ()
      done
    done
  in
  let total = producers * per_producer in
  let taken = Atomic.make 0 in
  let consume _ () =
    let mine = ref [] in
    let continue_ = ref true in
    while !continue_ do
      match Q.dequeue_opt q with
      | Some v ->
        Atomic.incr taken;
        mine := v :: !mine
      | None -> if Atomic.get taken >= total then continue_ := false else yield ()
    done;
    List.rev !mine
  in
  let ps = List.init producers (fun p -> Domain.spawn (produce p)) in
  let cs = List.init consumers (fun c -> Domain.spawn (consume c)) in
  List.iter Domain.join ps;
  let batches = List.map Domain.join cs in
  let all = List.concat batches in
  check Alcotest.int "no loss" total (List.length all);
  let sorted = List.sort compare all in
  check Alcotest.bool "no duplicates" true
    (List.for_all2 (fun a b -> a = b) sorted (List.init total Fun.id));
  (* per-producer FIFO: within each consumer's stream, each producer's
     values appear in increasing order; merge-check across consumers via
     a per-producer high-water mark is not valid (two consumers can
     interleave), but within one consumer order must hold *)
  List.iter
    (fun stream ->
      let last = Array.make producers (-1) in
      List.iter
        (fun v ->
          let p = v mod producers in
          check Alcotest.bool "per-producer FIFO" true (v > last.(p));
          last.(p) <- v)
        stream)
    batches

let test_queue_stress () = run_queue_stress ()

(* Same stress with adversarial yields injected at the queue's fault
   sites on every enrolled domain — a lincheck-style schedule perturbation
   at exactly the published linearization-sensitive points. *)
let test_queue_stress_yields () =
  Fi.arm
    {
      Fi.seed = 5;
      rules_for =
        (fun _ ->
          [
            Fi.rule
              ~sites:[ Site.Queue_enq_cas; Site.Queue_deq_cas ]
              ~prob:0.2 Fi.Yield;
            Fi.rule
              ~sites:[ Site.Queue_enq_cas; Site.Queue_deq_cas ]
              ~prob:0.02 (Fi.Stall 64);
          ]);
    };
  Fun.protect ~finally:Fi.disarm (fun () ->
      let q = Q.create 4 in
      let per = 2_000 in
      let yield () = Unix.sleepf 0.00002 in
      let produce p () =
        Fi.enroll ~slot:p;
        for i = 0 to per - 1 do
          let v = (i * 2) + p in
          while not (Q.try_enqueue q v) do
            yield ()
          done
        done
      in
      let taken = Atomic.make 0 in
      let consume c () =
        Fi.enroll ~slot:(2 + c);
        let seen = ref [] in
        let continue_ = ref true in
        while !continue_ do
          match Q.dequeue_opt q with
          | Some v ->
            Atomic.incr taken;
            seen := v :: !seen
          | None ->
            if Atomic.get taken >= 2 * per then continue_ := false
            else yield ()
        done;
        !seen
      in
      let ps = List.init 2 (fun p -> Domain.spawn (produce p)) in
      let cs = List.init 2 (fun c -> Domain.spawn (consume c)) in
      List.iter Domain.join ps;
      let all = List.concat (List.map Domain.join cs) in
      check Alcotest.int "no loss under yields" (2 * per) (List.length all);
      let sorted = List.sort compare all in
      check Alcotest.bool "no duplicates under yields" true
        (List.for_all2 ( = ) sorted (List.init (2 * per) Fun.id)))

(* --------------------------------------------- service vs sequential *)

(* With one worker and one session, admitted ops apply in submission
   order, so every answered value must equal a sequential union-find
   replay of the accepted prefix.  Only unite/same_set are compared —
   find's answer is a representative node, which the layouts are free to
   pick differently (checked separately below). *)
let test_service_sequential_oracle ?kind ?(plan = Dsu.Plan.default) () =
  let n = 256 in
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let cfg =
    {
      Svc.default_config with
      Svc.n;
      workers = 1;
      clients = 1;
      queue_capacity = 64;
      batch = 16;
      admission = Svc.Block 0.2;
      plan;
    }
  in
  let svc = Svc.create ?kind cfg in
  check Alcotest.string "backend kind"
    (match kind with
    | Some k -> Repro_recover.Snapshot.kind_to_string k
    | None when plan.Dsu.Plan.linking = Dsu.Plan.By_rank -> "packed"
    | None -> "flat")
    (Repro_recover.Snapshot.kind_to_string (Svc.kind svc));
  let rng = Rng.create 3 in
  let expected = Hashtbl.create 512 in
  let answered = ref 0 in
  let drain () =
    List.iter
      (fun (r : Svc.response) ->
        incr answered;
        match (r.Svc.r_outcome, Hashtbl.find_opt expected r.Svc.r_id) with
        | Svc.Done v, Some e ->
          check Alcotest.bool "oracle agrees" true (v = e)
        | Svc.Done _, None -> Alcotest.fail "unexpected response id"
        | _ -> Alcotest.fail "unexpected non-Done outcome")
      (Svc.poll svc ~session:0)
  in
  for _ = 0 to 1_999 do
    let x = Rng.int rng n and y = Rng.int rng n in
    let op =
      if Rng.int rng 2 = 0 then Svc.Unite (x, y) else Svc.Same_set (x, y)
    in
    (match Svc.submit svc ~session:0 op with
    | Svc.Enqueued id ->
      (* the oracle applies the op now: one worker serves FIFO *)
      let e =
        match op with
        | Svc.Unite (x, y) ->
          let rx = find x and ry = find y in
          if rx <> ry then parent.(rx) <- ry;
          Svc.V_unit
        | Svc.Same_set (x, y) -> Svc.V_bool (find x = find y)
        | Svc.Find _ -> assert false
      in
      Hashtbl.replace expected id e
    | Svc.Rejected _ -> Alcotest.fail "block admission rejected");
    drain ()
  done;
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while !answered < Hashtbl.length expected && Clock.now_ns () < give_up do
    drain ();
    Unix.sleepf 0.0002
  done;
  Svc.stop svc;
  check Alcotest.int "every accepted op answered" (Hashtbl.length expected)
    !answered

(* Find returns a real root of the element's current set — compare it as
   a set representative, not as a specific node. *)
let test_service_find_is_root () =
  let n = 64 in
  let cfg =
    { Svc.default_config with Svc.n; workers = 1; clients = 1; admission = Svc.Block 0.2 }
  in
  let svc = Svc.create cfg in
  (match Svc.submit svc ~session:0 (Svc.Unite (1, 2)) with
  | Svc.Enqueued _ -> ()
  | Svc.Rejected _ -> Alcotest.fail "rejected");
  (match Svc.submit svc ~session:0 (Svc.Find 1) with
  | Svc.Enqueued _ -> ()
  | Svc.Rejected _ -> Alcotest.fail "rejected");
  let root = ref (-1) in
  let give_up = Clock.now_ns () + 2_000_000_000 in
  while !root < 0 && Clock.now_ns () < give_up do
    List.iter
      (fun (r : Svc.response) ->
        match (r.Svc.r_op, r.Svc.r_outcome) with
        | Svc.Find _, Svc.Done (Svc.V_int v) -> root := v
        | _ -> ())
      (Svc.poll svc ~session:0);
    Unix.sleepf 0.0002
  done;
  Svc.stop svc;
  check Alcotest.bool "find answered with a member's root" true
    (!root = 1 || !root = 2);
  check Alcotest.bool "backend agrees" true
    (Repro_recover.Restore.same_set (Svc.backend svc) !root 1)

let test_service_element_bounds () =
  let cfg = { Svc.default_config with Svc.n = 8; workers = 1; clients = 1 } in
  let svc = Svc.create cfg in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Service.submit: element 8 outside [0, 8)") (fun () ->
      ignore (Svc.submit svc ~session:0 (Svc.Find 8)));
  Svc.stop svc

(* With no kind given, the backend is the layout the plan names; an
   explicit kind still wins. *)
let test_service_kind_follows_plan () =
  let kind_of ?kind plan =
    let cfg =
      { Svc.default_config with Svc.n = 8; workers = 1; clients = 1; plan }
    in
    let svc = Svc.create ?kind cfg in
    let k = Svc.kind svc in
    Svc.stop svc;
    Repro_recover.Snapshot.kind_to_string k
  in
  let packed =
    {
      Dsu.Plan.default with
      linking = Dsu.Plan.By_rank;
      layout = Dsu.Plan.Packed;
      compaction = Dsu.Find_policy.Halving;
    }
  in
  check Alcotest.string "packed plan" "packed" (kind_of packed);
  check Alcotest.string "default plan" "flat" (kind_of Dsu.Plan.default);
  check Alcotest.string "padded plan" "flat"
    (kind_of { Dsu.Plan.default with layout = Dsu.Plan.Padded });
  check Alcotest.string "explicit kind" "growable"
    (kind_of ~kind:Repro_recover.Snapshot.Growable packed)

(* --------------------------------------------- backpressure accounting *)

(* Drive the open-loop harness at a rate far past saturation with a tiny
   queue: depth stays bounded by capacity, and every accepted op is
   accounted (acked + shed + timed_out + failed + lost = accepted, no
   silent drops). *)
let run_backpressure admission =
  let config =
    {
      Hsvc.default_config with
      Hsvc.n = 1 lsl 10;
      generators = 2;
      ops = 2_000;
      workers = 2;
      queue_capacity = 32;
      batch = 8;
      admission;
      shape = Harness.Latency.Fixed;
    }
  in
  let p = Hsvc.run_point ~config ~rate:400_000.0 () in
  check Alcotest.bool "depth bounded by capacity" true p.Hsvc.depth_bound_ok;
  check Alcotest.bool "all accepted ops accounted" true p.Hsvc.accounted_ok;
  check Alcotest.int "nothing lost" 0 p.Hsvc.lost;
  check Alcotest.int "everything submitted" (2 * 2_000) p.Hsvc.submitted;
  p

let test_backpressure_reject () =
  let p = run_backpressure Svc.Reject in
  check Alcotest.bool "reject surfaces backpressure" true
    (p.Hsvc.rejected > 0 || not p.Hsvc.saturated)

let test_backpressure_shed () =
  let p = run_backpressure Svc.Shed_oldest in
  check Alcotest.int "shed admission never rejects" 0 p.Hsvc.rejected;
  check Alcotest.bool "displacement is answered, not silent" true
    (p.Hsvc.shed > 0 || not p.Hsvc.saturated)

let test_deadline_expiry () =
  (* saturate a tiny queue with a 1ms per-op deadline: some queued ops
     must expire and be answered Timed_out without touching the DSU *)
  let config =
    {
      Hsvc.default_config with
      Hsvc.n = 1 lsl 10;
      generators = 2;
      ops = 1_500;
      workers = 1;
      queue_capacity = 512;
      batch = 4;
      admission = Svc.Block 0.05;
      op_deadline_ms = 1.0;
      shape = Harness.Latency.Bursty 64;
    }
  in
  let p = Hsvc.run_point ~config ~rate:500_000.0 () in
  check Alcotest.bool "accounted" true p.Hsvc.accounted_ok;
  check Alcotest.bool "deadlines fired" true (p.Hsvc.timed_out > 0)

(* ------------------------------------------------------- mini drill *)

let test_drill_flat () =
  let config =
    {
      Hsvc.default_config with
      Hsvc.n = 1 lsl 10;
      workers = 2;
      queue_capacity = 64;
      batch = 8;
    }
  in
  let d = Hsvc.drill ~config ~kind:Repro_recover.Snapshot.Flat () in
  List.iter
    (fun (c : Hsvc.check) ->
      check Alcotest.bool
        (Printf.sprintf "drill check %s: %s" c.Hsvc.c_name c.Hsvc.c_detail)
        true c.Hsvc.c_passed)
    d.Hsvc.d_checks;
  check Alcotest.int "RPO is zero" 0 d.Hsvc.d_rpo_lost;
  check Alcotest.bool "RTO measured" true (d.Hsvc.d_rto_ns > 0);
  check Alcotest.bool "passed" true d.Hsvc.d_passed

let () =
  Alcotest.run "service"
    [
      ( "bounded-queue",
        [
          case "sequential oracle" test_queue_oracle;
          case "batch oracle" test_queue_batch_oracle;
          case "shed displaces oldest" test_queue_shed;
          case "enqueue deadline" test_queue_deadline;
          slow "4-domain stress" test_queue_stress;
          slow "4-domain stress with yields" test_queue_stress_yields;
        ] );
      ( "service",
        [
          case "sequential oracle (1 worker)" (fun () ->
              test_service_sequential_oracle ());
          case "sequential oracle, packed plan (1 worker)" (fun () ->
              test_service_sequential_oracle
                ~plan:
                  {
                    Dsu.Plan.default with
                    linking = Dsu.Plan.By_rank;
                    layout = Dsu.Plan.Packed;
                  }
                ());
          case "sequential oracle, flat-padded plan (1 worker)" (fun () ->
              test_service_sequential_oracle
                ~plan:{ Dsu.Plan.default with layout = Dsu.Plan.Padded }
                ());
          case "sequential oracle, growable kind (1 worker)" (fun () ->
              test_service_sequential_oracle
                ~kind:Repro_recover.Snapshot.Growable ());
          case "find returns a root" test_service_find_is_root;
          case "element bounds" test_service_element_bounds;
          case "backend kind follows the plan" test_service_kind_follows_plan;
        ] );
      ( "backpressure",
        [
          slow "reject at 2x saturation" test_backpressure_reject;
          slow "shed-oldest at 2x saturation" test_backpressure_shed;
          slow "per-op deadlines expire" test_deadline_expiry;
        ] );
      ("drill", [ slow "flat crash-recovery drill" test_drill_flat ]);
    ]
