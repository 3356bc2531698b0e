(** A {!Dsu_plan}-dispatched DSU backend as a first-class value.

    [Harness.Scalability.run_plan_point] dispatches a plan to the right
    layout constructor inline; every new plan-aware subsystem (the
    connectivity pipeline, the service layer) was about to repeat that
    match.  This module does the dispatch once and hands back a record of
    closures over the constructed structure, so callers are parametric in
    the plan without a functor boundary or a GADT.

    The closure record costs one indirect call per operation.  The bulk
    kernels ([unite_batch] / [same_set_batch] / [find_batch]) amortize
    that over the whole batch, so plan-parametric batch pipelines pay
    essentially nothing; per-op hot loops that care about the last few
    percent should keep matching on the layout themselves (as the
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

let create ?(plan = Dsu_plan.default) ?(seed = 1) ?(collect_stats = false) n =
  (match Dsu_plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Dsu_driver.create: invalid plan: " ^ msg));
  let policy = plan.Dsu_plan.compaction in
  let backoff = plan.Dsu_plan.backoff in
  let memory_order = plan.Dsu_plan.memory_order in
  let d =
    match plan.Dsu_plan.layout with
    | Dsu_plan.Flat | Dsu_plan.Padded ->
      Dsu_native.create ~policy ~backoff ~memory_order ~collect_stats ~seed
        ~padded:(plan.Dsu_plan.layout = Dsu_plan.Padded)
        n
    | Dsu_plan.Packed ->
      Packed_dsu.Native.create ~policy ~backoff ~memory_order ~collect_stats n
  in
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
