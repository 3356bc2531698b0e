(* The graphs layer: whole streaming-connectivity passes through
   Graphs.Connectit.run_stream (one domain, its default k-out:2 sampling,
   bulk finish, racy mode), and Edge_stream.fill timed chunk by chunk. *)

module Es = Graphs.Edge_stream
module Cn = Graphs.Connectit
open Bench

(* Every chunk of [stream] generated by [Edge_stream.fill] and handed to
   [unite_batch], with the two calls timed apart; then the label pass.
   Returns the core batch figures and fill ns per edge. *)
let decomposed ~seed ~stream ~labels =
  let buf = Es.make_chunk stream in
  let fill_ns = ref 0 in
  let next c =
    let t = now () in
    Es.fill stream c buf;
    fill_ns := !fill_ns + (now () - t);
    if buf.Es.len = Array.length buf.Es.src then (buf.Es.src, buf.Es.dst)
    else (Array.sub buf.Es.src 0 buf.Es.len, Array.sub buf.Es.dst 0 buf.Es.len)
  in
  let b =
    Core_layer.batch_probe ~seed ~nchunks:(Es.chunk_count stream) ~next ~labels
  in
  (b, float_of_int !fill_ns /. float_of_int (max 1 (Es.total_edges stream)))

type passes = {
  pass_ns : float list;  (** run_stream pass wall times *)
  scaled_ns : float list;  (** the same, scaled to the reference host speed *)
  reports : Cn.stream_report list;  (** their phase reports, labels dropped *)
  batches : Core_layer.batch list;  (** decomposed passes, traced only *)
  fill_ns : float list;  (** fill ns per edge of each decomposed pass *)
}

(* run_stream passes over [stream] until [budget_ns] of timed work has
   passed; each pass's labels must equal the reference [labels].
   run_stream is never bracketed inside: its report gives its phases,
   and the host-speed kernel runs between passes.  With [traced], each
   pass is followed by one decomposed pass, so the two see the same host
   conditions. *)
let passes ~seed ~stream ~labels ~budget_ns ~traced =
  let pass = ref [] and scaled = ref [] and reports = ref [] in
  let batches = ref [] and fills = ref [] in
  repeat_for ~budget_ns (fun i ->
      Gc.full_major ();
      let r, ns, s = Host_speed.scaled (fun () -> Cn.run_stream ~domains:1 ~seed stream) in
      let edges = r.Cn.edges_total in
      log "run_stream pass %d: %.3f s wall, %.3f s scaled" i (s_of_ns ns) (s /. 1e9);
      count ~ops:edges ~bad:(if r.Cn.labels = labels then 0 else edges);
      pass := float_of_int ns :: !pass;
      scaled := s :: !scaled;
      reports := { r with Cn.labels = [||] } :: !reports;
      if traced then begin
        let t1 = now () in
        let b, fill = decomposed ~seed ~stream ~labels in
        batches := b :: !batches;
        fills := fill :: !fills;
        ns + (now () - t1)
      end
      else ns);
  { pass_ns = !pass; scaled_ns = !scaled; reports = !reports; batches = !batches; fill_ns = !fills }
