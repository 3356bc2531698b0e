(* perfbench: one workload per invocation, inputs generated from --seed.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR

   --trace 0 prints the end-to-end metrics (peak RSS is added by run.py,
   which watches the process); --trace 1 prints the per-layer metrics,
   timed by this program around its own calls into each layer's public
   functions.  The last stdout line is the JSON result. *)

open Bench

let probe_ops = 1 lsl 21  (* per-op core probe drawn from the stream: m = 2n *)
let probe_pairs = 3  (* untraced/traced pass pairs of the per-op probe *)

(* Set-up is repeated until it has taken this long, and at least
   [setup_min_reps] times; the median is reported.  The reference
   host's speed drifts within seconds, so serve-wal's set-up (about a
   tenth of a second) repeated only a few times reads the drift. *)
let setup_budget_s = 5.
let setup_min_reps = 5

(* A traced run measures the other workload's layers too, on that
   workload's own inputs, for this long: one conn-pl round, or 30k
   serve-wal requests. *)
let other_seconds = 3.

(* Set-up repeated from scratch; returns the last result and the median
   time in seconds, scaled to the reference host speed (Host_speed).
   [dispose] releases an earlier one. *)
let set_up ?(dispose = ignore) f =
  let wall = ref [] and times = ref [] and last = ref None in
  while
    List.length !times < setup_min_reps
    || List.fold_left ( +. ) 0. !wall < setup_budget_s
  do
    Option.iter dispose !last;
    last := None;
    Gc.compact ();
    let x, ns, scaled = Host_speed.scaled f in
    wall := s_of_ns ns :: !wall;
    times := (scaled /. 1e9) :: !times;
    last := Some x
  done;
  log "set-up: %d times, median %.4f s wall, %.4f s scaled" (List.length !times)
    (median !wall) (median !times);
  (Option.get !last, median !times)

let emit_end_to_end ~setup_s ~work_per_s ~p50_ms =
  emit "setup_s" "s" setup_s;
  emit "work_per_s" "1/s" work_per_s;
  emit "p50_ms" "ms" p50_ms;
  emit "ok_share" "share"
    (float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted))

(* Cross-layer check bands, stated once: a layer whose costs do not add
   up to the end-to-end figure within these is a measurement or code bug.
   Bracketing every call stops the CPU overlapping one op's cache misses
   with the next, so per-call costs read about 1.1-1.35x the untraced
   pass.  The finish check compares passes run seconds apart, and the
   reference 2-core host's speed swings by up to a quarter within
   seconds; its band is wider for that. *)
let op_cost_band = (0.8, 2.0)
let finish_band = (0.7, 2.0)

let within (lo, hi) x = x >= lo && x <= hi

(* -------------------------------------------------------- conn-pl *)

(* The per-op core layer on [ops]: alternating untraced and traced
   passes, the exact counts, and the check that the mix-weighted per-call
   costs add up to the untraced ns/op (1/work_per_s of the pass).
   Returns the tracing overhead: traced / untraced pass time - 1. *)
let core_probe ~seed ~ops =
  let expected = Oracle.of_ops ops in
  let p = Core_layer.passes ~seed ~ops ~expected ~pairs:probe_pairs in
  emit "core.unite_ns" "ns" p.Core_layer.op_ns.(0);
  emit "core.same_set_ns" "ns" p.Core_layer.op_ns.(1);
  let iters, cas = Core_layer.counts ~seed ~ops ~expected in
  emit "core.find_iters_per_op" "steps" iters;
  emit "core.compaction_cas_per_op" "cas" cas;
  let plain = median p.Core_layer.plain_ns in
  let predicted = Core_layer.predicted_ns_per_op p in
  let measured = plain /. float_of_int (Inputs.length ops) in
  let ratio = predicted /. measured in
  emit "check.op_cost_ratio" "ratio" ratio;
  self_check "op-cost" (within op_cost_band ratio)
    (Printf.sprintf "per-call %.1f ns vs pass %.1f ns per op" predicted measured);
  (median p.Core_layer.traced_ns /. plain) -. 1.

(* Graphs figures of [p]'s run_stream passes over [stream], with the
   core batch figures of its decomposed passes. *)
let emit_graphs ~stream (p : Graphs_layer.passes) =
  let module Cn = Graphs.Connectit in
  let reports = p.Graphs_layer.reports in
  let phase f = median (List.map (fun r -> s_of_ns (f r)) reports) in
  let batch f = median (List.map f p.Graphs_layer.batches) in
  let r = List.hd reports in
  let finish_s = phase (fun r -> r.Cn.finish_ns) in
  let fill_ns = median p.Graphs_layer.fill_ns in
  let ub_ns = batch (fun b -> b.Core_layer.unite_batch_ns_per_edge) in
  let skip_share = float_of_int r.Cn.edges_skipped /. float_of_int r.Cn.edges_total in
  emit "core.unite_batch_ns_per_edge" "ns" ub_ns;
  emit "core.find_batch_ns_per_vertex" "ns"
    (batch (fun b -> b.Core_layer.find_batch_ns_per_vertex));
  emit "graphs.fill_ns_per_edge" "ns" fill_ns;
  emit "graphs.sample_s" "s" (phase (fun r -> r.Cn.sample_ns));
  emit "graphs.finish_s" "s" finish_s;
  emit "graphs.label_s" "s" (phase (fun r -> r.Cn.label_ns));
  emit "graphs.skip_share" "share" skip_share;
  emit "graphs.sample_unites" "unites" (float_of_int r.Cn.sample_unites);
  (* Where sampling skips (almost) nothing, as on power-law, finish is
     fill + the skip filter + unite_batch over every edge. *)
  let edges = float_of_int (Graphs.Edge_stream.total_edges stream) in
  let predicted = (fill_ns +. ub_ns) *. edges /. 1e9 in
  let ratio = finish_s /. predicted in
  emit "check.finish_ratio" "ratio" ratio;
  if skip_share < 0.01 then
    self_check "finish-vs-fill+batch" (within finish_band ratio)
      (Printf.sprintf "finish %.3f s vs fill+unite_batch %.3f s" finish_s predicted)

let conn_pl ~seed ~seconds ~scratch:_ =
  let module Es = Graphs.Edge_stream in
  (* set-up: the stream from the seed, every edge generated once *)
  let stream, setup_s =
    set_up (fun () ->
        let s = Inputs.power_law_stream ~seed in
        let buf = Es.make_chunk s in
        for c = 0 to Es.chunk_count s - 1 do
          Es.fill s c buf
        done;
        s)
  in
  let labels = Oracle.labels_of_stream stream in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let p = Graphs_layer.passes ~seed ~stream ~labels ~budget_ns ~traced:false in
  let pass_ns = median p.Graphs_layer.scaled_ns in
  log "%s: %d passes, median %.3f s wall, %.3f s scaled" (Es.describe stream)
    (List.length p.Graphs_layer.pass_ns)
    (median p.Graphs_layer.pass_ns /. 1e9)
    (pass_ns /. 1e9);
  emit_end_to_end ~setup_s
    ~work_per_s:(float_of_int (Es.total_edges stream) /. (pass_ns /. 1e9))
    ~p50_ms:(pass_ns /. 1e6)

(* conn-pl's layers: run_stream passes, each followed by a decomposed
   fill/unite_batch/find_batch pass, then the per-op core probe on the
   stream's first 2^21 edges, whose bracketed calls are the tracing that
   costs.  run_stream itself is never bracketed. *)
let conn_pl_layers ~seed ~seconds ~scratch:_ =
  let stream = Inputs.power_law_stream ~seed in
  let labels = Oracle.labels_of_stream stream in
  let budget_ns = int_of_float (seconds *. 1e9) in
  emit_graphs ~stream (Graphs_layer.passes ~seed ~stream ~labels ~budget_ns ~traced:true);
  core_probe ~seed ~ops:(Inputs.ops_of_stream stream ~count:probe_ops)

(* ------------------------------------------------------ serve-wal *)

let wal_path scratch = Filename.concat scratch "serve.wal"
let request_count seconds = int_of_float (float_of_int Service_layer.rate *. seconds) + 1
let p50_ms a = Service_layer.ms_of_ns (quantile_int (Array.copy a) 0.5)

let serve_wal ~seed ~seconds ~scratch =
  let count = request_count seconds in
  let (ops, server), setup_s =
    set_up
      ~dispose:(fun (_, s) -> Service_layer.shutdown s)
      (fun () ->
        let ops = Inputs.service_mix ~seed ~count in
        (ops, Service_layer.start ~seed ~path:(wal_path scratch)))
  in
  let r = Service_layer.run server ~ops ~seconds ~traced:false in
  let plain = r.Service_layer.plain_latency in
  log "serve-wal: %d acked of %d sent, p50 %.3f ms" r.Service_layer.acked
    (Array.length r.Service_layer.lag_ns) (p50_ms plain);
  emit_end_to_end ~setup_s
    ~work_per_s:(float_of_int r.Service_layer.acked /. r.Service_layer.duration_s)
    ~p50_ms:(p50_ms plain)

(* serve-wal's layers: one run whose blocks of requests alternate
   between untraced and traced (submit and poll bracketed).  Returns the
   tracing overhead: traced / untraced p50 - 1. *)
let serve_wal_layers ~seed ~seconds ~scratch =
  let ops = Inputs.service_mix ~seed ~count:(request_count seconds) in
  let server = Service_layer.start ~seed ~path:(wal_path scratch) in
  let r = Service_layer.run server ~ops ~seconds ~traced:true in
  Service_layer.emit_layer r;
  (p50_ms r.Service_layer.traced_latency /. p50_ms r.Service_layer.plain_latency) -. 1.

(* Each workload: its end-to-end run and its layers. *)
let workloads =
  [
    ("conn-pl", (conn_pl, conn_pl_layers));
    ("serve-wal", (serve_wal, serve_wal_layers));
  ]

(* The traced run reports every per-layer metric: each workload's layers
   on that workload's own inputs, the named workload's for [seconds] and
   the other's for [other_seconds], the tracing overhead of the named
   one, and the host speed the run saw. *)
let traced_run ~workload ~seed ~seconds ~scratch =
  List.iter
    (fun (name, (_, layers)) ->
      let own = name = workload in
      let o = layers ~seed ~seconds:(if own then seconds else other_seconds) ~scratch in
      if own then emit "trace.overhead_share" "share" o)
    workloads;
  emit "host.speed" "ratio" (Host_speed.speed ())

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and scratch = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--scratch", Arg.Set_string scratch, "DIR directory for log files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some (run, _) ->
    if !scratch = "" || not (Sys.file_exists !scratch) then begin
      prerr_endline "perfbench: --scratch must name an existing directory";
      exit 2
    end;
    if !trace = 1 then
      traced_run ~workload:!workload ~seed:!seed ~seconds:!seconds ~scratch:!scratch
    else run ~seed:!seed ~seconds:!seconds ~scratch:!scratch;
    print_result ()
