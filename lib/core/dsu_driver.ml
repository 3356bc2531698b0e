(** The plan boundary: {!native} is the one place a {!Dsu_plan} layout
    becomes a constructor.  Every layout builds the same {!Dsu_native.t}
    handle — random ids or ranks, padded or not — so everything
    downstream (recover, durable, service, chaos) takes that one type.
    {!create} wraps the handle in a record of closures for callers that
    want a first-class value (the connectivity pipeline, perfbench).

    The closure record costs one indirect call per operation.  The bulk
    kernels ([unite_batch] / [same_set_batch] / [find_batch]) amortize
    that over the whole batch, so plan-parametric batch pipelines pay
    essentially nothing; per-op hot loops that care about the last few
    percent call {!Dsu_native} on the {!native} handle directly (as the
    scalability harness does). *)

type t = {
  n : int;
  plan : Dsu_plan.t;
  find : int -> int;
  same_set : int -> int -> bool;
  unite : int -> int -> unit;
  unite_batch : int array -> int array -> unit;
  same_set_batch : int array -> int array -> bool array;
  find_batch : int array -> int array;
  count_sets : unit -> int;
  parents_snapshot : unit -> int array;
  stats : unit -> Dsu_stats.snapshot option;
}

let native ?seed ?(collect_stats = false) ?on_link (plan : Dsu_plan.t) n =
  (match Dsu_plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Dsu_driver: invalid plan: " ^ msg));
  let policy = plan.compaction
  and backoff = plan.backoff
  and memory_order = plan.memory_order in
  match plan.layout with
  | Dsu_plan.Flat | Dsu_plan.Padded ->
    Dsu_native.create ~policy ~backoff ~memory_order ~collect_stats ?on_link
      ?seed ~padded:(plan.layout = Dsu_plan.Padded) n
  | Dsu_plan.Packed ->
    Packed_dsu.Native.create ~policy ~backoff ~memory_order ~collect_stats
      ?on_link n

let create ?(plan = Dsu_plan.default) ?(seed = 1) ?(collect_stats = false) n =
  let d = native ~seed ~collect_stats plan n in
  {
    n;
    plan;
    find = Dsu_native.find d;
    same_set = Dsu_native.same_set d;
    unite = Dsu_native.unite d;
    unite_batch = Dsu_native.unite_batch d;
    same_set_batch = Dsu_native.same_set_batch d;
    find_batch = Dsu_native.find_batch d;
    count_sets = (fun () -> Dsu_native.count_sets d);
    parents_snapshot = (fun () -> Dsu_native.parents_snapshot d);
    stats =
      (fun () -> if collect_stats then Some (Dsu_native.stats d) else None);
  }
