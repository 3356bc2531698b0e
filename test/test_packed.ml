(* Tests for rank linking over the single-word (rank, parent) node layout
   (Dsu.Packed) — natively and in the APRAM simulator — and the
   first-class plan space (Dsu.Plan). *)

module Packed = Dsu.Packed
module Plan = Dsu.Plan
module Policy = Dsu.Find_policy
module Quick_find = Sequential.Quick_find
module Rng = Repro_util.Rng

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ----------------------------------------------------------- word layout *)

let word_tests =
  [
    case "field widths fit one 63-bit OCaml int" (fun () ->
        check Alcotest.bool "parent + rank <= 62" true
          (Packed.parent_bits + Packed.rank_bits <= 62);
        check Alcotest.int "max_nodes" (1 lsl Packed.parent_bits)
          Packed.max_nodes;
        check Alcotest.int "max_rank" ((1 lsl Packed.rank_bits) - 1)
          Packed.max_rank);
    case "words pack and unpack exactly" (fun () ->
        let probes =
          [ (0, 0); (1, 1); (7, 41); (Packed.max_rank, Packed.max_nodes - 1) ]
        in
        List.iter
          (fun (rank, parent) ->
            let w = Packed.word ~rank ~parent in
            check Alcotest.bool "non-negative" true (w >= 0);
            check Alcotest.int "rank" rank (Packed.rank_of_word w);
            check Alcotest.int "parent field" parent (Packed.parent_of_word w);
            let w' = Packed.with_parent w 5 in
            check Alcotest.int "swung rank kept" rank (Packed.rank_of_word w');
            check Alcotest.int "swung parent" 5 (Packed.parent_of_word w'))
          probes);
    case "a rank-0 word is its parent index" (fun () ->
        (* So random-id cells, whose ranks stay 0, hold exactly the parent
           index, and a fresh node's word is its own index. *)
        List.iter
          (fun i ->
            check Alcotest.int (string_of_int i) i
              (Packed.word ~rank:0 ~parent:i))
          [ 0; 19; Packed.max_nodes - 1 ]);
    case "create bounds-checks n" (fun () ->
        List.iter
          (fun n ->
            match Packed.Native.create n with
            | _ -> Alcotest.fail (Printf.sprintf "accepted n=%d" n)
            | exception Invalid_argument _ -> ())
          [ 0; -1; Packed.max_nodes + 1 ]);
  ]

(* -------------------------------------------------------------- semantics *)

let oracle_mix ~policy ~n ~ops ~seed =
  let d = Packed.Native.create ~policy n in
  let q = Quick_find.create n in
  let rng = Rng.create seed in
  for _ = 1 to ops do
    let x = Rng.int rng n and y = Rng.int rng n in
    if Rng.bool rng then begin
      Packed.Native.unite d x y;
      Quick_find.unite q x y
    end
    else
      check Alcotest.bool "query" (Quick_find.same_set q x y)
        (Packed.Native.same_set d x y)
  done;
  check Alcotest.int "count" (Quick_find.count_sets q)
    (Packed.Native.count_sets d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "invariants" []
    (Packed.Native.invariant_violations d)

let native_tests =
  [
    case "singletons at creation" (fun () ->
        let d = Packed.Native.create 8 in
        check Alcotest.int "count" 8 (Packed.Native.count_sets d);
        check Alcotest.bool "apart" false (Packed.Native.same_set d 0 1);
        check Alcotest.bool "root" true (Packed.Native.is_root d 5);
        check Alcotest.int "rank 0" 0 (Packed.Native.rank_of d 0));
    case "unite and transitivity" (fun () ->
        let d = Packed.Native.create 8 in
        Packed.Native.unite d 0 1;
        Packed.Native.unite d 1 2;
        check Alcotest.bool "0~2" true (Packed.Native.same_set d 0 2);
        check Alcotest.int "count" 6 (Packed.Native.count_sets d));
    case "rank tie promotes the winner" (fun () ->
        let d = Packed.Native.create 4 in
        Packed.Native.unite d 0 1;
        let root = Packed.Native.find d 0 in
        check Alcotest.int "winner rank" 1 (Packed.Native.rank_of d root));
    case "matches quick-find oracle under every policy" (fun () ->
        List.iter
          (fun policy -> oracle_mix ~policy ~n:64 ~ops:800 ~seed:7)
          Policy.all);
    case "ranks are bounded by lg n" (fun () ->
        let n = 256 in
        let d = Packed.Native.create n in
        let rng = Rng.create 3 in
        for _ = 1 to 4 * n do
          Packed.Native.unite d (Rng.int rng n) (Rng.int rng n)
        done;
        for i = 0 to n - 1 do
          check Alcotest.bool (string_of_int i) true
            (Packed.Native.rank_of d i <= 8)
        done);
    case "adversarial chain stays logarithmic" (fun () ->
        let n = 1 lsl 10 in
        let d = Packed.Native.create ~policy:Policy.No_compaction n in
        for i = 0 to n - 2 do
          Packed.Native.unite d i (i + 1)
        done;
        let max_depth = ref 0 in
        for i = 0 to n - 1 do
          let u = ref i and depth = ref 0 in
          while Packed.Native.parent_of d !u <> !u do
            u := Packed.Native.parent_of d !u;
            incr depth
          done;
          max_depth := max !max_depth !depth
        done;
        check Alcotest.bool "height <= lg n" true (!max_depth <= 10));
    case "out-of-range rejected" (fun () ->
        let d = Packed.Native.create 4 in
        match Packed.Native.find d 4 with
        | _ -> Alcotest.fail "accepted an out-of-range node"
        | exception Invalid_argument _ -> ());
    case "stats count links" (fun () ->
        let d = Packed.Native.create ~collect_stats:true 16 in
        for i = 0 to 14 do
          Packed.Native.unite d i (i + 1)
        done;
        check Alcotest.int "links" 15 (Packed.Native.stats d).Dsu.Stats.links);
    case "batch kernels agree with the per-op loop" (fun () ->
        let n = 512 in
        let rng = Rng.create 23 in
        let count = 2 * n in
        let xs = Array.init count (fun _ -> Rng.int rng n) in
        let ys = Array.init count (fun _ -> Rng.int rng n) in
        let a = Packed.Native.create n and b = Packed.Native.create n in
        Packed.Native.unite_batch a xs ys;
        Array.iteri (fun k x -> Packed.Native.unite b x ys.(k)) xs;
        let qx = Array.init 256 (fun _ -> Rng.int rng n) in
        let qy = Array.init 256 (fun _ -> Rng.int rng n) in
        let ra = Packed.Native.same_set_batch a qx qy in
        Array.iteri
          (fun k x ->
            check Alcotest.bool
              (Printf.sprintf "query %d" k)
              (Packed.Native.same_set b x qy.(k))
              ra.(k))
          qx;
        check Alcotest.int "same partition" (Packed.Native.count_sets b)
          (Packed.Native.count_sets a));
    case "parallel domains agree with oracle" (fun () ->
        let n = 300 in
        let d = Packed.Native.create n in
        let per_domain = 1500 in
        let worker k () =
          let rng = Rng.create (400 + k) in
          for _ = 1 to per_domain do
            Packed.Native.unite d (Rng.int rng n) (Rng.int rng n)
          done
        in
        let handles = List.init 4 (fun k -> Domain.spawn (worker k)) in
        List.iter Domain.join handles;
        let q = Quick_find.create n in
        for k = 0 to 3 do
          let rng = Rng.create (400 + k) in
          for _ = 1 to per_domain do
            Quick_find.unite q (Rng.int rng n) (Rng.int rng n)
          done
        done;
        check Alcotest.int "count" (Quick_find.count_sets q)
          (Packed.Native.count_sets d);
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "invariants hold after concurrency" []
          (Packed.Native.invariant_violations d));
    case "of_snapshot round-trips and validates" (fun () ->
        let n = 64 in
        let d = Packed.Native.create n in
        let rng = Rng.create 11 in
        for _ = 1 to 200 do
          Packed.Native.unite d (Rng.int rng n) (Rng.int rng n)
        done;
        let parents = Packed.Native.parents_snapshot d in
        let ranks = Packed.Native.ranks_snapshot d in
        let d' = Packed.Native.of_snapshot ~parents ~ranks () in
        for x = 0 to n - 1 do
          check Alcotest.bool (string_of_int x)
            (Packed.Native.same_set d 0 x)
            (Packed.Native.same_set d' 0 x)
        done;
        (* and the constructor rejects garbage *)
        let bad_parent = Array.copy parents in
        bad_parent.(0) <- n;
        (match Packed.Native.of_snapshot ~parents:bad_parent ~ranks () with
        | _ -> Alcotest.fail "accepted an out-of-range parent"
        | exception Invalid_argument _ -> ());
        let bad_rank = Array.copy ranks in
        bad_rank.(0) <- Packed.max_rank + 1;
        match Packed.Native.of_snapshot ~parents ~ranks:bad_rank () with
        | _ -> Alcotest.fail "accepted an oversized rank"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ plans *)

let plan_tests =
  [
    case "default plan is valid and spells itself" (fun () ->
        check Alcotest.bool "valid" true (Plan.is_valid Plan.default);
        check Alcotest.string "spec" "rand:two-try:relaxed-reads:on:flat"
          (Plan.to_string Plan.default));
    case "of_string round-trips every registry point" (fun () ->
        check Alcotest.bool "registry non-trivial" true
          (List.length Plan.registry > 20);
        List.iter
          (fun p ->
            check Alcotest.bool (Plan.to_string p) true (Plan.is_valid p);
            match Plan.of_string (Plan.to_string p) with
            | Ok p' ->
              check Alcotest.bool "equal after round-trip" true (Plan.equal p p')
            | Error e -> Alcotest.fail e)
          Plan.registry);
    case "candidates are valid and include the packed contenders" (fun () ->
        List.iter
          (fun p ->
            check Alcotest.bool (Plan.to_string p) true (Plan.is_valid p))
          Plan.candidates;
        check Alcotest.bool "default present" true
          (List.exists (Plan.equal Plan.default) Plan.candidates);
        check Alcotest.bool "a packed plan present" true
          (List.exists (fun p -> p.Plan.layout = Plan.Packed) Plan.candidates));
    case "invalid combinations are rejected with sayings" (fun () ->
        let rejected s =
          match Plan.of_string s with Ok _ -> false | Error _ -> true
        in
        check Alcotest.bool "by-size linking" true
          (rejected "size:two-try:relaxed-reads:on:flat");
        check Alcotest.bool "random linking on packed" true
          (rejected "rand:two-try:relaxed-reads:on:packed");
        check Alcotest.bool "rank linking off packed" true
          (rejected "rank:two-try:relaxed-reads:on:flat");
        check Alcotest.bool "boxed is no longer a layout" true
          (rejected "rand:two-try:seq-cst:on:boxed"));
    case "the layouts are flat, flat-padded and packed" (fun () ->
        check (Alcotest.list Alcotest.string) "names"
          [ "flat"; "flat-padded"; "packed" ]
          (List.map Plan.layout_to_string Plan.all_layouts);
        List.iter
          (fun l ->
            check Alcotest.bool (Plan.layout_to_string l) true
              (Plan.layout_of_string (Plan.layout_to_string l) = Some l))
          Plan.all_layouts;
        check Alcotest.bool "boxed unknown" true
          (Plan.layout_of_string "boxed" = None));
    case "an unknown layout's error names the valid layouts" (fun () ->
        match Plan.of_string "rand:compression:seq-cst:on:boxed" with
        | Ok _ -> Alcotest.fail "accepted the boxed layout"
        | Error e ->
          let contains sub =
            let ls = String.length sub and le = String.length e in
            let rec go i = i + ls <= le && (String.sub e i ls = sub || go (i + 1)) in
            go 0
          in
          check Alcotest.bool ("names the layouts: " ^ e) true
            (contains "flat, flat-padded, packed"));
    case "malformed specs name the bad field" (fun () ->
        let err s =
          match Plan.of_string s with
          | Error e -> e
          | Ok _ -> Alcotest.fail ("accepted " ^ s)
        in
        check Alcotest.bool "too few fields" true
          (String.length (err "rand:two-try") > 0);
        check Alcotest.bool "bad compaction" true
          (String.length (err "rand:sideways:relaxed-reads:on:flat") > 0);
        check Alcotest.bool "bad backoff" true
          (String.length (err "rand:two-try:relaxed-reads:maybe:flat") > 0));
    case "every valid plan runs through the scalability harness" (fun () ->
        (* one cheap point per plan family: flat, padded, packed *)
        List.iter
          (fun spec ->
            match Plan.of_string spec with
            | Error e -> Alcotest.fail e
            | Ok plan ->
              let config =
                {
                  Harness.Scalability.default_config with
                  Harness.Scalability.n = 128;
                  total_ops = 1_000;
                }
              in
              let p =
                Harness.Scalability.run_plan_point ~config ~plan ~domains:1 ()
              in
              check Alcotest.bool (spec ^ " clean") true
                (p.Harness.Scalability.failures = []))
          [
            "rand:two-try:relaxed-reads:on:flat";
            "rand:halving:seq-cst:off:flat-padded";
            "rand:compression:acquire:on:flat";
            "rank:one-try:acquire:on:packed";
          ]);
  ]

(* ------------------------------------------------------------- simulator *)

(* Run one simulated process per list of unites and return the final
   packed words. *)
let sim_run ~n ~sched ops_lists =
  let h = Packed.Sim.handle n in
  let bodies =
    Array.map (List.map (fun (x, y) -> Packed.Sim.unite_op h x y)) ops_lists
  in
  let outcome =
    Apram.Sim.run_ops ~mem_size:(Packed.Sim.mem_size n) ~init:(Packed.Sim.init n)
      ~sched bodies
  in
  Array.init n (Apram.Memory.peek outcome.Apram.Sim.memory)

(* Nodes whose word breaks the rank order: a child must point to a larger
   (rank, index). *)
let word_violations words =
  let key i = (Packed.rank_of_word words.(i), i) in
  List.filter_map
    (fun i ->
      let p = Packed.parent_of_word words.(i) in
      if p <> i && compare (key i) (key p) >= 0 then Some (i, p) else None)
    (List.init (Array.length words) Fun.id)

let is_root_cell words i = Packed.parent_of_word words.(i) = i

(* The partition a final simulator memory encodes. *)
let partition_of_words words =
  let n = Array.length words in
  let rec root i =
    let p = Packed.parent_of_word words.(i) in
    if p = i then i else root p
  in
  let q = Quick_find.create n in
  for i = 0 to n - 1 do
    Quick_find.unite q i (root i)
  done;
  q

(* Exhaustive interleaving checks, as test_dsu.ml runs them for random-id
   linking: Apram.Explore enumerates the complete schedule tree of a
   two-process workload, so rank linking's read / re-check / link /
   promotion round is checked under every interleaving, for every
   policy. *)
let explore ~policy ~ops ~check:ok =
  let n = 3 in
  let make_ops () =
    let h = Packed.Sim.handle ~policy n in
    Array.map (List.map (fun op -> op h)) ops
  in
  Apram.Explore.run_all ~max_schedules:500_000 ~mem_size:(Packed.Sim.mem_size n)
    ~init:(Packed.Sim.init n) ~make_ops ~check:ok ()

let exhaustive_tests =
  [
    case "every schedule of unite || same_set linearizes (full enumeration)"
      (fun () ->
        List.iter
          (fun policy ->
            match
              explore ~policy
                ~ops:
                  [|
                    [ (fun h -> Packed.Sim.unite_op h 0 1) ];
                    [ (fun h -> Packed.Sim.same_set_op h 0 1) ];
                  |]
                ~check:(fun o ->
                  Lincheck.Checker.check ~n:3 o.Apram.Sim.history
                  = Lincheck.Checker.Linearizable)
            with
            | Ok s ->
              check Alcotest.bool
                (Printf.sprintf "%s complete" (Policy.to_string policy))
                false s.Apram.Explore.truncated;
              check Alcotest.bool "several schedules" true
                (s.Apram.Explore.schedules > 10)
            | Error v ->
              Alcotest.failf "policy %s, schedule %d not linearizable"
                (Policy.to_string policy) v.Apram.Explore.schedule_index)
          Policy.all);
    case "every schedule of racing unites yields the correct partition"
      (fun () ->
        (* unite(0,1) racing unite(1,2): whatever the interleaving, the
           final partition is {0,1,2} and every word keeps the rank
           order, promotions included. *)
        List.iter
          (fun policy ->
            match
              explore ~policy
                ~ops:
                  [|
                    [ (fun h -> Packed.Sim.unite_op h 0 1) ];
                    [ (fun h -> Packed.Sim.unite_op h 1 2) ];
                  |]
                ~check:(fun o ->
                  let words =
                    Array.init 3 (Apram.Memory.peek o.Apram.Sim.memory)
                  in
                  Quick_find.count_sets (partition_of_words words) = 1
                  && word_violations words = [])
            with
            | Ok s ->
              check Alcotest.bool
                (Printf.sprintf "%s complete" (Policy.to_string policy))
                false s.Apram.Explore.truncated
            | Error v ->
              Alcotest.failf "policy %s, schedule %d wrong partition"
                (Policy.to_string policy) v.Apram.Explore.schedule_index)
          Policy.all);
  ]

let sim_tests =
  [
    case "sim partition matches oracle under adversarial schedules" (fun () ->
        let n = 20 in
        let rng = Rng.create 31 in
        let ops_lists =
          Array.init 3 (fun _ ->
              List.init 10 (fun _ -> (Rng.int rng n, Rng.int rng n)))
        in
        let q = Quick_find.create n in
        Array.iter (List.iter (fun (x, y) -> Quick_find.unite q x y)) ops_lists;
        List.iter
          (fun sched ->
            let h = Packed.Sim.handle n in
            let bodies =
              Array.map
                (List.map (fun (x, y) -> Packed.Sim.unite_op h x y))
                ops_lists
            in
            let outcome =
              Apram.Sim.run_ops ~mem_size:(Packed.Sim.mem_size n)
                ~init:(Packed.Sim.init n) ~sched bodies
            in
            let parent i =
              Packed.parent_of_word (Apram.Memory.peek outcome.Apram.Sim.memory i)
            in
            let rec root i = if parent i = i then i else root (parent i) in
            for x = 0 to n - 1 do
              for y = x to n - 1 do
                check Alcotest.bool
                  (Printf.sprintf "%s %d %d" (Apram.Scheduler.name sched) x y)
                  (Quick_find.same_set q x y)
                  (root x = root y)
              done
            done)
          [
            Apram.Scheduler.round_robin ();
            Apram.Scheduler.random ~seed:5;
            Apram.Scheduler.cas_adversary ~seed:6;
            Apram.Scheduler.laggard ~seed:7 ~victim:0 ~delay:9;
          ]);
    case "sim histories linearize" (fun () ->
        let n = 6 in
        let rng = Rng.create 41 in
        for trial = 1 to 15 do
          let h = Packed.Sim.handle n in
          let ops =
            Array.init 3 (fun _ ->
                List.init 3 (fun _ ->
                    let x = Rng.int rng n and y = Rng.int rng n in
                    if Rng.bool rng then Packed.Sim.unite_op h x y
                    else Packed.Sim.same_set_op h x y))
          in
          let outcome =
            Apram.Sim.run_ops ~mem_size:(Packed.Sim.mem_size n)
              ~init:(Packed.Sim.init n)
              ~sched:(Apram.Scheduler.random ~seed:trial) ops
          in
          match Lincheck.Checker.check ~n outcome.Apram.Sim.history with
          | Lincheck.Checker.Linearizable -> ()
          | Lincheck.Checker.Not_linearizable msg -> Alcotest.fail msg
        done);
    case "sim single process matches native word for word" (fun () ->
        (* Rank linking is deterministic, so one simulated process and the
           native structure, fed the same unites, build the same forest. *)
        let n = 48 in
        let rng = Rng.create 17 in
        let ops = List.init 120 (fun _ -> (Rng.int rng n, Rng.int rng n)) in
        let d = Packed.Native.create n in
        List.iter (fun (x, y) -> Packed.Native.unite d x y) ops;
        let memory = sim_run ~n ~sched:(Apram.Scheduler.round_robin ()) [| ops |] in
        check (Alcotest.array Alcotest.int) "parents"
          (Packed.Native.parents_snapshot d)
          (Array.map Packed.parent_of_word memory);
        check (Alcotest.array Alcotest.int) "ranks"
          (Packed.Native.ranks_snapshot d)
          (Array.map Packed.rank_of_word memory));
    case "sim rank tie promotes the winner" (fun () ->
        let memory =
          sim_run ~n:4 ~sched:(Apram.Scheduler.round_robin ()) [| [ (0, 1) ] |]
        in
        let roots = List.filter (is_root_cell memory) [ 0; 1 ] in
        match roots with
        | [ r ] -> check Alcotest.int "winner rank" 1 (Packed.rank_of_word memory.(r))
        | _ -> Alcotest.fail "expected exactly one root of {0, 1}");
    case "sim rank order holds under every schedule" (fun () ->
        let n = 24 in
        let rng = Rng.create 53 in
        let ops_lists =
          Array.init 3 (fun _ ->
              List.init 16 (fun _ -> (Rng.int rng n, Rng.int rng n)))
        in
        List.iter
          (fun sched ->
            let memory = sim_run ~n ~sched ops_lists in
            check
              (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
              (Apram.Scheduler.name sched) [] (word_violations memory))
          [
            Apram.Scheduler.round_robin ();
            Apram.Scheduler.random ~seed:8;
            Apram.Scheduler.cas_adversary ~seed:9;
            Apram.Scheduler.laggard ~seed:10 ~victim:1 ~delay:7;
          ]);
    case "sim ranks are bounded by lg n" (fun () ->
        let n = 64 in
        let rng = Rng.create 61 in
        let ops_lists =
          Array.init 3 (fun _ ->
              List.init 80 (fun _ -> (Rng.int rng n, Rng.int rng n)))
        in
        let memory =
          sim_run ~n ~sched:(Apram.Scheduler.random ~seed:4) ops_lists
        in
        Array.iteri
          (fun i w ->
            check Alcotest.bool (string_of_int i) true (Packed.rank_of_word w <= 6))
          memory);
    case "sim adversarial chain stays logarithmic" (fun () ->
        let n = 256 in
        let chain = List.init (n - 1) (fun i -> (i, i + 1)) in
        let memory =
          sim_run ~n ~sched:(Apram.Scheduler.round_robin ()) [| chain |]
        in
        let parent i = Packed.parent_of_word memory.(i) in
        let rec depth i = if parent i = i then 0 else 1 + depth (parent i) in
        for i = 0 to n - 1 do
          check Alcotest.bool (string_of_int i) true (depth i <= 8)
        done);
    case "sim link count equals merged sets under contention" (fun () ->
        let n = 20 in
        let rng = Rng.create 71 in
        let ops_lists =
          Array.init 4 (fun _ ->
              List.init 12 (fun _ -> (Rng.int rng n, Rng.int rng n)))
        in
        let h = Packed.Sim.handle n in
        let bodies =
          Array.map (List.map (fun (x, y) -> Packed.Sim.unite_op h x y)) ops_lists
        in
        let outcome =
          Apram.Sim.run_ops ~mem_size:(Packed.Sim.mem_size n)
            ~init:(Packed.Sim.init n) ~sched:(Apram.Scheduler.cas_adversary ~seed:3)
            bodies
        in
        let memory = Array.init n (Apram.Memory.peek outcome.Apram.Sim.memory) in
        let roots = ref 0 in
        for i = 0 to n - 1 do
          if is_root_cell memory i then incr roots
        done;
        check Alcotest.int "links" (n - !roots) (Packed.Sim.stats h).Dsu.Stats.links);
  ]

let () =
  Alcotest.run "packed_dsu"
    [
      ("word", word_tests);
      ("native", native_tests);
      ("sim", sim_tests);
      ("exhaustive", exhaustive_tests);
      ("plan", plan_tests);
    ]
