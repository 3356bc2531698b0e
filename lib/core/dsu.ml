(** Concurrent disjoint set union with randomized linking — an OCaml
    implementation of Jayanti & Tarjan, "A Randomized Concurrent Algorithm
    for Disjoint Set Union" (PODC 2016).

    Entry points:

    - {!Native} — the user-facing DSU over OCaml 5 domains; one handle
      type under both linking rules ({!Packed.Native} builds the rank
      one, {!Native.by_rank} tells them apart).
    - {!Driver} — the plan boundary: {!Driver.native} turns a {!Plan}
      into that handle.
    - {!Growable} — the [MakeSet] extension (elements created on the fly).
    - {!Sim} — the same algorithm instrumented to run inside the APRAM
      simulator ({!Apram.Sim}) for exact work measurements.
    - {!Find_policy} — selects among the paper's three [Find] variants.
    - {!Stats} — operation counters shared by all instantiations.
    - {!Obs} — telemetry instruments ({!Repro_obs} glue): latency/step
      histograms, CAS counters and trace events, armed globally via
      [Repro_obs.Metrics.set_enabled] / [Repro_obs.Trace.set_enabled].
    - {!Algorithm} — the functor over {!Memory_intf.S}, for embedding the
      algorithm over a custom shared memory; the linking rule (random ids
      or ranks) is a value fixed at its [create], so {!Native}, {!Packed},
      {!Growable} and {!Sim} all run this one core over the same
      [(rank, parent)] node word. *)

module Find_policy = Find_policy
module Memory_order = Memory_order
module Memory_intf = Memory_intf
module Stats = Dsu_stats
module Obs = Dsu_obs

module Contention = Dsu_contention
(** Per-site/per-node CAS contention attribution (armed independently of
    metrics and tracing); exports the [dsu-contention/v1] hot-node
    report. *)

module Algorithm = Dsu_algorithm
module Native_memory = Native_memory
module Native = Dsu_native

module Sim = Dsu_sim
module Growable = Growable

module Growable_unbounded = Growable_unbounded
(** The capacity-free [MakeSet] variant: the universe grows without bound
    (Section 3 remark); set operations stay lock-free. *)

module Packed = Packed_dsu
(** The concurrent linking-by-rank variant of Section 7, which needs no
    independence assumption (see experiment E15): the {!Native} handle
    (the same type) with [By_rank] linking, using the rank field of the
    [(rank, parent)] node word, under every {!Find_policy} compaction
    rule; {!Packed.Sim} runs it in the APRAM simulator. *)

module Plan = Dsu_plan
(** First-class configuration points of the plan space (linking rule x
    compaction x memory order x backoff x layout), with the registry swept
    by [Harness.Autotune] and the [--plan] CLI spec syntax. *)

module Driver = Dsu_driver
(** The plan boundary: {!Driver.native} builds the {!Native} handle a plan
    names; {!Driver.create} wraps it as a first-class closure record. *)
