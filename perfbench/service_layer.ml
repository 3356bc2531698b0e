(* The service and WAL layers: Repro_service.Service with one worker and
   a Repro_durable.Wal attached, fed by one client session in an open
   loop at a fixed offered rate. *)

module S = Repro_service.Service
module W = Repro_durable.Wal
open Bench

(* Offered requests per second.  Measured with this client on the
   reference host: p50 sits on a plateau of 1.9-2.1 ms from 5k to 30k/s,
   where the WAL committer's 1 ms idle sleep sets the commit cadence
   (about 800 commits/s at every rate); it rises to 3.8 ms at 40k/s, and
   at 50k/s the service saturates at about 41k acked/s with full batches.
   10k/s is mid-plateau, a quarter of saturation. *)
let rate = 10_000

(* The generator sleeps until this close to a send time, then spins: it
   must not hold a core while the worker and the WAL committer run. *)
let spin_window_ns = 50_000

type server = { svc : S.t; wal : W.writer; path : string }

let start ~seed ~path =
  let wal = W.create_writer path in
  let config =
    {
      S.default_config with
      S.n = Inputs.n;
      workers = 1;
      clients = 1;
      queue_capacity = 65_536;
      batch = 64;
      admission = S.Reject;
      seed;
      snapshot_dir = None;
    }
  in
  { svc = S.create ~wal config; wal; path }

let shutdown s =
  S.stop s.svc;
  W.close s.wal

let op_of (ops : Inputs.ops) i =
  let a = ops.Inputs.a.(i) and b = ops.Inputs.b.(i) in
  match Bytes.get ops.Inputs.kind i with
  | '\000' -> S.Unite (a, b)
  | '\001' -> S.Same_set (a, b)
  | _ -> S.Find a

type result = {
  plain_latency : int array;  (** acked requests sent in untraced blocks *)
  traced_latency : int array;  (** acked requests sent in traced blocks *)
  lag_ns : int array;  (** send time minus intended send time *)
  submit_ns : float;  (** per [submit] call, traced blocks *)
  poll_ns : float;  (** per [poll] call, traced blocks *)
  stats : S.stats;
  writer : W.writer_stats;
  wal_bytes : int;
  acked : int;
  acked_unites : int;
  duration_s : float;  (** first intended send to last completion *)
}

(* Serve [ops] for [seconds] at [rate], then stop [server] and check
   every answer and the log.  With [traced], blocks of up to a second
   (at least two per run) alternate between untraced and traced, where
   submit and poll calls are bracketed. *)
let run server ~(ops : Inputs.ops) ~seconds ~traced =
  let total = min (Inputs.length ops) (int_of_float (float_of_int rate *. seconds)) in
  let period = 1e9 /. float_of_int rate in
  let block = max 1 (min rate (total / 2)) in
  let traced_at i = traced && (i / block) land 1 = 1 in
  let latency = Array.make total (-1) and res = Array.make total 0 in
  let index_of_id = Hashtbl.create total in
  let lag = Array.make total 0 in
  let sub_sum = ref 0 and sub_calls = ref 0 in
  let poll_sum = ref 0 and poll_calls = ref 0 in
  let answered = ref 0 and accepted = ref 0 and last = ref 0 in
  let handle (r : S.response) =
    match Hashtbl.find_opt index_of_id r.S.r_id with
    | None -> ()
    | Some i ->
      incr answered;
      if r.S.r_completed_ns > !last then last := r.S.r_completed_ns;
      (match r.S.r_outcome with
      | S.Done v ->
        latency.(i) <- r.S.r_completed_ns - r.S.r_intended_ns;
        (match v with
        | S.V_bool b -> res.(i) <- Bool.to_int b
        | S.V_int x -> res.(i) <- x
        | S.V_unit -> ())
      | S.Shed | S.Timed_out | S.Failed _ -> ())
  in
  let poll timed =
    if timed then begin
      let t = now () in
      let rs = S.poll server.svc ~session:0 in
      poll_sum := !poll_sum + (now () - t);
      incr poll_calls;
      List.iter handle rs
    end
    else List.iter handle (S.poll server.svc ~session:0)
  in
  let t_start = now () + 2_000_000 in
  for i = 0 to total - 1 do
    let timed = traced_at i in
    let due = t_start + int_of_float (float_of_int i *. period) in
    poll timed;
    let rec wait () =
      let gap = due - now () in
      if gap > 0 then begin
        if gap > spin_window_ns then
          Unix.sleepf (float_of_int (gap - spin_window_ns) /. 1e9)
        else Domain.cpu_relax ();
        wait ()
      end
    in
    wait ();
    let t = now () in
    lag.(i) <- t - due;
    let admit = S.submit server.svc ~intended_ns:due ~session:0 (op_of ops i) in
    if timed then begin
      sub_sum := !sub_sum + (now () - t);
      incr sub_calls
    end;
    match admit with
    | S.Enqueued id ->
      incr accepted;
      Hashtbl.replace index_of_id id i
    | S.Rejected _ -> ()
  done;
  let give_up = now () + 5_000_000_000 in
  while !answered < !accepted && now () < give_up do
    poll false;
    if !answered < !accepted then Unix.sleepf 0.0002
  done;
  shutdown server;
  (* The checks below allocate arrays of n in stages, and the heap never
     gives memory back.  A full collection before each stage lets it reuse
     what the run and the last stage dropped, so garbage does not decide
     the peak RSS. *)
  Gc.full_major ();
  let stats = S.stats server.svc and writer = W.writer_stats server.wal in
  (* ---- oracle: every answer, then the log read back and replayed ---- *)
  let sub = Inputs.prefix ops total in
  let expected = Oracle.of_ops sub in
  Gc.full_major ();
  let tail, wal_bytes =
    match W.read_file server.path with
    | Ok t when t.W.truncated_at = None -> (Some t, t.W.total_bytes)
    | Ok t -> (None, t.W.total_bytes)
    | Error _ -> (None, 0)
  in
  (try Sys.remove server.path with Sys_error _ -> ());
  Gc.full_major ();
  let replayed =
    match tail with
    | None -> Array.make Inputs.n (-1)
    | Some t ->
      let s = Oracle.Seq.create Inputs.n in
      Array.iter (fun r -> Oracle.Seq.unite s r.W.x r.W.y) t.W.records;
      Oracle.min_id_labels Inputs.n (Oracle.Seq.find s)
  in
  (* The replayed log must give the reference partition, so it holds
     every acknowledged unite (RPO = 0) and no link that was not asked
     for; otherwise every op fails. *)
  let partition_ok = replayed = expected.Oracle.labels in
  let bad = ref 0 and acked = ref 0 and acked_unites = ref 0 in
  for i = 0 to total - 1 do
    if latency.(i) >= 0 then begin
      incr acked;
      if Bytes.get sub.Inputs.kind i = Inputs.unite then incr acked_unites
    end;
    if (not partition_ok) || latency.(i) < 0
       || Oracle.wrong_answer expected sub res replayed i
    then incr bad
  done;
  count ~ops:total ~bad:!bad;
  let split want =
    let l = ref [] in
    for i = total - 1 downto 0 do
      if latency.(i) >= 0 && traced_at i = want then l := latency.(i) :: !l
    done;
    Array.of_list !l
  in
  {
    plain_latency = split false;
    traced_latency = split true;
    lag_ns = lag;
    submit_ns = per_call_ns ~sum:!sub_sum ~calls:!sub_calls;
    poll_ns = per_call_ns ~sum:!poll_sum ~calls:!poll_calls;
    stats;
    writer;
    wal_bytes;
    acked = !acked;
    acked_unites = !acked_unites;
    duration_s = s_of_ns (max 1 (!last - t_start));
  }

let ms_of_ns x = float_of_int x /. 1e6

(* The service and WAL per-layer metrics of one run. *)
let emit_layer r =
  let all = Array.append r.plain_latency r.traced_latency in
  emit "service.submit_ns" "ns" r.submit_ns;
  emit "service.poll_ns" "ns" r.poll_ns;
  emit "service.ops_per_batch" "ops"
    (float_of_int r.stats.S.s_accepted /. float_of_int (max 1 r.stats.S.s_batches));
  emit "service.max_depth" "ops" (float_of_int r.stats.S.s_max_depth);
  emit "service.p99_ms" "ms" (ms_of_ns (quantile_int all 0.99));
  emit "wal.records_per_commit" "records"
    (float_of_int r.writer.W.ws_committed /. float_of_int (max 1 r.writer.W.ws_commits));
  emit "wal.commits_per_s" "1/s" (float_of_int r.writer.W.ws_commits /. r.duration_s);
  emit "wal.bytes_per_unite" "B"
    (float_of_int r.wal_bytes /. float_of_int (max 1 r.acked_unites));
  emit "gen.lag_ms" "ms" (ms_of_ns (quantile_int (Array.copy r.lag_ns) 0.99))
