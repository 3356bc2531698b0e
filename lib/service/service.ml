(* The connectivity server: bounded ingestion, batched drain, durable ack.

   Client sessions submit ops into per-worker bounded ingestion queues
   under an explicit admission policy; worker domains drain batches and
   apply them through the layouts' bulk kernels where available; when a
   WAL is attached, a group commit is forced BEFORE any op in the batch
   is acknowledged, so an acked unite is always on disk — that ordering
   is the whole RPO=0 argument, and the serving chaos drill measures it.

   Every admitted op gets exactly one response (Done, Shed, Timed_out or
   Failed) unless the worker holding it crashes, in which case it is lost
   {e unacknowledged} — the failure mode the contract permits. *)

module Queue = Bounded_queue
module Site = Repro_fault.Site
module Fi = Repro_fault.Inject
module Backoff = Repro_util.Backoff
module Clock = Repro_obs.Clock
module Metrics = Repro_obs.Metrics
module Wal = Repro_durable.Wal
module Fuzzy = Repro_durable.Fuzzy
module Restore = Repro_recover.Restore
module Rsnap = Repro_recover.Snapshot

type op = Unite of int * int | Same_set of int * int | Find of int

let op_to_string = function
  | Unite (x, y) -> Printf.sprintf "unite %d %d" x y
  | Same_set (x, y) -> Printf.sprintf "same_set %d %d" x y
  | Find x -> Printf.sprintf "find %d" x

type admission = Reject | Shed_oldest | Block of float

let admission_to_string = function
  | Reject -> "reject"
  | Shed_oldest -> "shed-oldest"
  | Block s -> Printf.sprintf "block:%g" (s *. 1e3)

let admission_of_string s =
  match String.split_on_char ':' s with
  | [ "reject" ] -> Some Reject
  | [ "shed-oldest" ] -> Some Shed_oldest
  | [ "block" ] -> Some (Block 0.005)
  | [ "block"; ms ] -> (
    match float_of_string_opt ms with
    | Some ms when ms > 0. -> Some (Block (ms /. 1e3))
    | _ -> None)
  | _ -> None

type reject_reason = Queue_full | Admission_deadline | Stopped

let reject_reason_to_string = function
  | Queue_full -> "queue-full"
  | Admission_deadline -> "admission-deadline"
  | Stopped -> "stopped"

type value = V_unit | V_bool of bool | V_int of int

type outcome =
  | Done of value
  | Shed
  | Timed_out
  | Failed of string

type request = {
  id : int;
  session : int;
  op : op;
  intended_ns : int;
  deadline_ns : int;  (* 0 = none *)
}

type response = {
  r_id : int;
  r_session : int;
  r_op : op;
  r_outcome : outcome;
  r_intended_ns : int;
  r_completed_ns : int;
}

type admit = Enqueued of int | Rejected of reject_reason

type config = {
  n : int;
  workers : int;
  clients : int;
  queue_capacity : int;
  batch : int;
  admission : admission;
  plan : Dsu.Plan.t;
  seed : int;
  snapshot_dir : string option;
  snapshot_interval : float;
}

let default_config =
  {
    n = 1 lsl 16;
    workers = 2;
    clients = 2;
    queue_capacity = 1024;
    batch = 64;
    admission = Reject;
    plan = Dsu.Plan.default;
    seed = 42;
    snapshot_dir = None;
    snapshot_interval = 0.05;
  }

type t = {
  cfg : config;
  backend : Restore.restored;
  wal : Wal.writer option;
  queues : request Queue.t array;
  completions : response Queue.t array;
  stopping : bool Atomic.t;
  mutable worker_handles : unit Domain.t list;
  mutable snapshotter : unit Domain.t option;
  worker_crash : (Site.t * int) option Atomic.t array;
  unhealthy : bool Atomic.t;  (* a worker refused to ack: wal dead *)
  next_id : int Atomic.t;
  submitted : int Atomic.t;
  accepted : int Atomic.t;
  rejected_full : int Atomic.t;
  rejected_deadline : int Atomic.t;
  rejected_stopped : int Atomic.t;
  shed : int Atomic.t;
  timed_out : int Atomic.t;
  acked : int Atomic.t;
  failed : int Atomic.t;
  displaced : int Atomic.t;  (* completion-lane displacement: 0 by sizing *)
  batches : int Atomic.t;
  max_batch : int Atomic.t;
  max_depth : int Atomic.t;
  snapshots_taken : int Atomic.t;
  m_depth : Metrics.gauge array;
  m_shed : Metrics.counter;
  m_rejected : Metrics.counter;
  m_acked : Metrics.counter;
  m_timed_out : Metrics.counter;
}

let backend t = t.backend
let kind t = Restore.kind t.backend

let note_max cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

let committer_dead t =
  match t.wal with
  | None -> false
  | Some w -> Wal.crashed w <> None || Wal.failed w <> None

type health = {
  h_dead_workers : (int * (Site.t * int)) list;
  h_committer_dead : bool;
}

let health t =
  let dead = ref [] in
  Array.iteri
    (fun k c ->
      match Atomic.get c with
      | Some cs -> dead := (k, cs) :: !dead
      | None -> ())
    t.worker_crash;
  {
    h_dead_workers = List.rev !dead;
    h_committer_dead = committer_dead t || Atomic.get t.unhealthy;
  }

let healthy t =
  let h = health t in
  h.h_dead_workers = [] && not h.h_committer_dead

(* ------------------------------------------------------------ responses *)

(* Completion lanes are sized in [create] for the worst-case in-flight
   population, so the shed path below is unreachable in a correctly-sized
   service; it exists (instead of a blocking push) so a worker can never
   be wedged by a client that stopped polling, and the [displaced]
   counter makes any sizing violation loud. *)
let push_completion t (rsp : response) =
  let lane = t.completions.(rsp.r_session mod Array.length t.completions) in
  match Queue.shed_enqueue lane rsp with
  | None -> ()
  | Some _ -> Atomic.incr t.displaced

let respond t (r : request) outcome =
  (match outcome with
  | Done _ ->
    Atomic.incr t.acked;
    Metrics.incr t.m_acked
  | Shed ->
    Atomic.incr t.shed;
    Metrics.incr t.m_shed
  | Timed_out ->
    Atomic.incr t.timed_out;
    Metrics.incr t.m_timed_out
  | Failed _ -> Atomic.incr t.failed);
  push_completion t
    {
      r_id = r.id;
      r_session = r.session;
      r_op = r.op;
      r_outcome = outcome;
      r_intended_ns = r.intended_ns;
      r_completed_ns = Clock.now_ns ();
    }

(* ---------------------------------------------------------- application *)

(* Apply a drained batch in FIFO order, fusing maximal consecutive runs of
   the same constructor through the bulk kernels where the handle has them
   (the native one, flat or packed); the growable backend and singleton
   runs fall back to the uniform per-op dispatchers.  Returns
   [(request, value)] in FIFO order. *)
let apply t reqs =
  let out = ref [] in
  let flush_run run =
    match run with
    | [] -> ()
    | ({ op = Unite _; _ } :: _ as rs) ->
      let arr = Array.of_list rs in
      let get f r = match r.op with Unite (x, y) -> f x y | _ -> assert false in
      let xs = Array.map (get (fun x _ -> x)) arr in
      let ys = Array.map (get (fun _ y -> y)) arr in
      (match t.backend with
      | Restore.Native d when Array.length arr > 1 -> Dsu.Native.unite_batch d xs ys
      | b ->
        for i = 0 to Array.length arr - 1 do
          Restore.unite b xs.(i) ys.(i)
        done);
      Array.iter (fun r -> out := (r, V_unit) :: !out) arr
    | ({ op = Same_set _; _ } :: _ as rs) ->
      let arr = Array.of_list rs in
      let get f r =
        match r.op with Same_set (x, y) -> f x y | _ -> assert false
      in
      let xs = Array.map (get (fun x _ -> x)) arr in
      let ys = Array.map (get (fun _ y -> y)) arr in
      let bs =
        match t.backend with
        | Restore.Native d when Array.length arr > 1 ->
          Dsu.Native.same_set_batch d xs ys
        | b -> Array.mapi (fun i x -> Restore.same_set b x ys.(i)) xs
      in
      Array.iteri (fun i r -> out := (r, V_bool bs.(i)) :: !out) arr
    | [ ({ op = Find x; _ } as r) ] ->
      out := (r, V_int (Restore.find t.backend x)) :: !out
    | { op = Find _; _ } :: _ -> assert false (* finds are never fused *)
  in
  let tag r =
    match r.op with Unite _ -> 0 | Same_set _ -> 1 | Find _ -> 2
  in
  let rec go run run_tag = function
    | [] -> flush_run (List.rev run)
    | r :: tl when tag r = run_tag && run_tag <> 2 -> go (r :: run) run_tag tl
    | r :: tl ->
      flush_run (List.rev run);
      go [ r ] (tag r) tl
  in
  (match reqs with [] -> () | r :: tl -> go [ r ] (tag r) tl);
  List.rev !out

let process_batch t reqs =
  Atomic.incr t.batches;
  note_max t.max_batch (List.length reqs);
  let now = Clock.now_ns () in
  (* ops that missed their deadline while queued time out before touching
     the structure — the client already gave up on them *)
  let live =
    List.filter
      (fun r ->
        if r.deadline_ns > 0 && now > r.deadline_ns then begin
          respond t r Timed_out;
          false
        end
        else true)
      reqs
  in
  let results = apply t live in
  (* The durability barrier: force the group commit and only ack if the
     committer is still alive to have performed it.  An ack therefore
     implies the batch's links are on disk — RPO = 0 by construction. *)
  let durable =
    match t.wal with
    | None -> true
    | Some w ->
      Wal.flush w;
      Wal.crashed w = None && Wal.failed w = None
  in
  if durable then List.iter (fun (r, v) -> respond t r (Done v)) results
  else begin
    Atomic.set t.unhealthy true;
    List.iter (fun (r, _) -> respond t r (Failed "wal-committer-dead")) results
  end;
  durable

let worker_loop t k =
  let q = t.queues.(k) in
  let idle = ref 0 in
  try
    let continue = ref true in
    while !continue do
      match Queue.dequeue_batch q ~max:t.cfg.batch with
      | [] ->
        if Atomic.get t.stopping then continue := false
        else begin
          incr idle;
          (* brief spin, then sleep: an idle worker must not steal the
             mutators' CPU (same reasoning as the WAL committer) *)
          if !idle < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002
        end
      | reqs ->
        idle := 0;
        if not (process_batch t reqs) then begin
          (* No durable acks are possible any more: fail the backlog so
             nothing rots unanswered, then leave. *)
          let rec drain () =
            match Queue.dequeue_opt q with
            | None -> ()
            | Some r ->
              respond t r (Failed "wal-committer-dead");
              drain ()
          in
          drain ();
          continue := false
        end
    done
  with Fi.Crashed (site, slot) ->
    (* Crash-stop: the partially-processed batch dies with the worker,
       unacknowledged — admitted-but-unacked loss, which the serving
       contract permits and the drill's RPO accounting verifies. *)
    Atomic.set t.worker_crash.(k) (Some (site, slot))

(* ----------------------------------------------------------- snapshotter *)

let write_snapshot t dir seq =
  let epoch = Option.map Wal.epoch t.wal in
  let cap = Fuzzy.of_restored ?epoch t.backend in
  Rsnap.write_file
    (Filename.concat dir (Printf.sprintf "snap-%03d.bin" seq))
    cap.Fuzzy.snapshot;
  Atomic.incr t.snapshots_taken

let snapshotter_loop t dir =
  let seq = ref 1 in
  (* snap-000 was written synchronously in [create] *)
  while not (Atomic.get t.stopping) do
    let until = Clock.wall_s () +. t.cfg.snapshot_interval in
    while (not (Atomic.get t.stopping)) && Clock.wall_s () < until do
      Unix.sleepf 0.001
    done;
    if not (Atomic.get t.stopping) then begin
      write_snapshot t dir !seq;
      incr seq
    end
  done

let snapshot_files t =
  match t.cfg.snapshot_dir with
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* -------------------------------------------------------------- lifecycle *)

let validate_config cfg =
  if cfg.n < 2 then invalid_arg "Service.create: n must be >= 2";
  if cfg.workers < 1 then invalid_arg "Service.create: workers must be >= 1";
  if cfg.clients < 1 then invalid_arg "Service.create: clients must be >= 1";
  if cfg.queue_capacity < 1 then
    invalid_arg "Service.create: queue_capacity must be >= 1";
  if cfg.batch < 1 then invalid_arg "Service.create: batch must be >= 1";
  if cfg.snapshot_interval <= 0. then
    invalid_arg "Service.create: snapshot_interval must be positive"

let create ?backend ?wal ?on_worker_start ?kind cfg =
  validate_config cfg;
  let on_link =
    Option.map (fun w -> fun ~child ~parent -> Wal.append w ~child ~parent) wal
  in
  let plan = cfg.plan in
  let backend =
    match (backend, kind) with
    | Some b, _ -> b
    | None, None ->
      Restore.Native (Dsu.Driver.native ?on_link ~seed:cfg.seed plan cfg.n)
    | None, Some kind ->
      Restore.create ~policy:plan.Dsu.Plan.compaction
        ~backoff:plan.Dsu.Plan.backoff ~memory_order:plan.Dsu.Plan.memory_order
        ~padded:(plan.Dsu.Plan.layout = Dsu.Plan.Padded)
        ?on_link ~seed:cfg.seed kind cfg.n
  in
  (* worst-case responses outstanding per lane: every admitted op of every
     worker (queued + one in-process batch) could route to one lane *)
  let lane_cap = (cfg.workers * (cfg.queue_capacity + cfg.batch)) + 8 in
  let t =
    {
      cfg;
      backend;
      wal;
      queues = Array.init cfg.workers (fun _ -> Queue.create cfg.queue_capacity);
      completions = Array.init cfg.clients (fun _ -> Queue.create lane_cap);
      stopping = Atomic.make false;
      worker_handles = [];
      snapshotter = None;
      worker_crash = Array.init cfg.workers (fun _ -> Atomic.make None);
      unhealthy = Atomic.make false;
      next_id = Atomic.make 0;
      submitted = Atomic.make 0;
      accepted = Atomic.make 0;
      rejected_full = Atomic.make 0;
      rejected_deadline = Atomic.make 0;
      rejected_stopped = Atomic.make 0;
      shed = Atomic.make 0;
      timed_out = Atomic.make 0;
      acked = Atomic.make 0;
      failed = Atomic.make 0;
      displaced = Atomic.make 0;
      batches = Atomic.make 0;
      max_batch = Atomic.make 0;
      max_depth = Atomic.make 0;
      snapshots_taken = Atomic.make 0;
      m_depth =
        Array.init cfg.workers (fun k ->
            Metrics.gauge
              ~help:"current ingestion queue depth"
              (Printf.sprintf "service_queue_%d_depth" k));
      m_shed = Metrics.counter ~help:"ops displaced by shed-oldest" "service_shed_total";
      m_rejected =
        Metrics.counter ~help:"submissions rejected at admission"
          "service_rejected_total";
      m_acked = Metrics.counter ~help:"ops acknowledged Done" "service_acked_total";
      m_timed_out =
        Metrics.counter ~help:"ops expired past their deadline"
          "service_timed_out_total";
    }
  in
  (* always leave at least one recovery candidate on disk before serving *)
  (match cfg.snapshot_dir with
  | None -> ()
  | Some dir ->
    write_snapshot t dir 0;
    t.snapshotter <- Some (Domain.spawn (fun () -> snapshotter_loop t dir)));
  t.worker_handles <-
    List.init cfg.workers (fun k ->
        Domain.spawn (fun () ->
            (match on_worker_start with None -> () | Some f -> f k);
            worker_loop t k));
  t

(* -------------------------------------------------------------- requests *)

let check_element t x =
  if x < 0 || x >= t.cfg.n then
    invalid_arg (Printf.sprintf "Service.submit: element %d outside [0, %d)" x t.cfg.n)

let submit t ?intended_ns ?(deadline_ns = 0) ~session op =
  (match op with
  | Unite (x, y) | Same_set (x, y) ->
    check_element t x;
    check_element t y
  | Find x -> check_element t x);
  Atomic.incr t.submitted;
  if Atomic.get t.stopping then begin
    Atomic.incr t.rejected_stopped;
    Metrics.incr t.m_rejected;
    Rejected Stopped
  end
  else begin
    let id = Atomic.fetch_and_add t.next_id 1 in
    let intended_ns =
      match intended_ns with Some ns -> ns | None -> Clock.now_ns ()
    in
    let req = { id; session; op; intended_ns; deadline_ns } in
    let qi = session mod t.cfg.workers in
    let q = t.queues.(qi) in
    let depth = Queue.length q in
    note_max t.max_depth depth;
    Metrics.set t.m_depth.(qi) depth;
    match t.cfg.admission with
    | Reject ->
      if Queue.try_enqueue q req then begin
        Atomic.incr t.accepted;
        Enqueued id
      end
      else begin
        Atomic.incr t.rejected_full;
        Metrics.incr t.m_rejected;
        Rejected Queue_full
      end
    | Shed_oldest -> (
      match Queue.shed_enqueue q req with
      | None ->
        Atomic.incr t.accepted;
        Enqueued id
      | Some victim ->
        Atomic.incr t.accepted;
        respond t victim Shed;
        Enqueued id)
    | Block timeout_s ->
      let deadline = Clock.now_ns () + int_of_float (timeout_s *. 1e9) in
      if Queue.enqueue_until q ~deadline_ns:deadline req then begin
        Atomic.incr t.accepted;
        Enqueued id
      end
      else begin
        Atomic.incr t.rejected_deadline;
        Metrics.incr t.m_rejected;
        Rejected Admission_deadline
      end
  end

let poll ?(max = max_int) t ~session =
  let lane = t.completions.(session mod t.cfg.clients) in
  if Queue.is_empty lane then [] else Queue.dequeue_batch lane ~max

(* ------------------------------------------------------------------ stop *)

let stop t =
  Atomic.set t.stopping true;
  List.iter Domain.join t.worker_handles;
  t.worker_handles <- [];
  (match t.snapshotter with
  | None -> ()
  | Some d ->
    Domain.join d;
    t.snapshotter <- None);
  (* Sweep the queues of crashed workers (and any enqueue that raced the
     drain-then-exit): every admitted op still gets its response. *)
  Array.iter
    (fun q ->
      let rec go () =
        match Queue.dequeue_opt q with
        | None -> ()
        | Some r ->
          respond t r (Failed "shutdown");
          go ()
      in
      go ())
    t.queues;
  match t.wal with None -> () | Some w -> Wal.flush w

(* ----------------------------------------------------------------- stats *)

type stats = {
  s_submitted : int;
  s_accepted : int;
  s_rejected_full : int;
  s_rejected_deadline : int;
  s_rejected_stopped : int;
  s_shed : int;
  s_timed_out : int;
  s_acked : int;
  s_failed : int;
  s_displaced : int;
  s_batches : int;
  s_max_batch : int;
  s_max_depth : int;
  s_snapshots : int;
}

let stats t =
  {
    s_submitted = Atomic.get t.submitted;
    s_accepted = Atomic.get t.accepted;
    s_rejected_full = Atomic.get t.rejected_full;
    s_rejected_deadline = Atomic.get t.rejected_deadline;
    s_rejected_stopped = Atomic.get t.rejected_stopped;
    s_shed = Atomic.get t.shed;
    s_timed_out = Atomic.get t.timed_out;
    s_acked = Atomic.get t.acked;
    s_failed = Atomic.get t.failed;
    s_displaced = Atomic.get t.displaced;
    s_batches = Atomic.get t.batches;
    s_max_batch = Atomic.get t.max_batch;
    s_max_depth = Atomic.get t.max_depth;
    s_snapshots = Atomic.get t.snapshots_taken;
  }
