(* Tests for the fault-injection subsystem: site labels, the injection
   engine's arming/enrollment/rule semantics, the forest validator
   (including a deliberately seeded cycle), and the chaos harness's
   2-of-8 domain-crash demo scenario. *)

module Site = Repro_fault.Site
module Inject = Repro_fault.Inject
module Forest_check = Repro_fault.Forest_check
module Chaos = Harness.Chaos

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* ----------------------------------------------------------------- Site *)

let site_tests =
  [
    case "to_string/of_string round-trip" (fun () ->
        List.iter
          (fun s ->
            match Site.of_string (Site.to_string s) with
            | Some s' -> check Alcotest.bool "round-trip" true (s = s')
            | None -> Alcotest.failf "unparseable: %s" (Site.to_string s))
          Site.all);
    case "of_string rejects junk" (fun () ->
        check Alcotest.bool "junk" true (Site.of_string "not-a-site" = None));
    case "cas sites are a subset of all" (fun () ->
        check Alcotest.bool "subset" true
          (List.for_all (fun s -> List.mem s Site.all) Site.cas_sites));
  ]

(* --------------------------------------------------------------- Inject *)

(* These run on the test's own domain: enroll, hammer [hit], observe.  Each
   case arms its own plan and disarms at the end so cases stay independent. *)

let with_plan plan f =
  Inject.arm plan;
  Fun.protect ~finally:Inject.disarm f

let inject_tests =
  [
    case "disarmed hit is a no-op" (fun () ->
        Inject.disarm ();
        Inject.hit Site.Find_hop;
        check Alcotest.int "no hits counted" 0 (Inject.totals ()).Inject.hits);
    case "unenrolled domain never faults" (fun () ->
        with_plan
          { Inject.seed = 1; rules_for = (fun _ -> [ Inject.rule Inject.Crash ]) }
          (fun () ->
            (* no enroll *)
            Inject.hit Site.Find_hop;
            check Alcotest.int "crashes" 0 (Inject.totals ()).Inject.crashes));
    case "crash rule fires after its countdown, exactly once" (fun () ->
        with_plan
          {
            Inject.seed = 2;
            rules_for = (fun _ -> [ Inject.rule ~after:3 Inject.Crash ]);
          }
          (fun () ->
            Inject.enroll ~slot:0;
            Inject.hit Site.Link_cas_pre;
            Inject.hit Site.Link_cas_pre;
            Inject.hit Site.Link_cas_pre;
            (try
               Inject.hit Site.Link_cas_pre;
               Alcotest.fail "expected Crashed"
             with Inject.Crashed (site, slot) ->
               check Alcotest.bool "site" true (site = Site.Link_cas_pre);
               check Alcotest.int "slot" 0 slot);
            let t = Inject.totals () in
            check Alcotest.int "one crash" 1 t.Inject.crashes;
            check Alcotest.int "four hits" 4 t.Inject.hits));
    case "site filter restricts where a rule fires" (fun () ->
        with_plan
          {
            Inject.seed = 3;
            rules_for =
              (fun _ ->
                [ Inject.rule ~sites:[ Site.Split_read_gap ] Inject.Crash ]);
          }
          (fun () ->
            Inject.enroll ~slot:0;
            Inject.hit Site.Find_hop;
            Inject.hit Site.Link_cas_post;
            check Alcotest.int "no crash yet" 0 (Inject.totals ()).Inject.crashes;
            try
              Inject.hit Site.Split_read_gap;
              Alcotest.fail "expected Crashed"
            with Inject.Crashed _ -> ()));
    case "stall and yield rules count and do not raise" (fun () ->
        with_plan
          {
            Inject.seed = 4;
            rules_for =
              (fun _ ->
                [ Inject.rule (Inject.Stall 4); Inject.rule Inject.Yield ]);
          }
          (fun () ->
            Inject.enroll ~slot:0;
            for _ = 1 to 5 do
              Inject.hit Site.Find_hop
            done;
            let t = Inject.totals () in
            check Alcotest.int "stalls" 5 t.Inject.stalls;
            check Alcotest.int "yields" 5 t.Inject.yields;
            check Alcotest.int "crashes" 0 t.Inject.crashes));
    case "my_hops counts Find_hop hits only" (fun () ->
        with_plan
          { Inject.seed = 5; rules_for = (fun _ -> []) }
          (fun () ->
            Inject.enroll ~slot:2;
            Inject.hit Site.Find_hop;
            Inject.hit Site.Find_hop;
            Inject.hit Site.Link_cas_pre;
            check Alcotest.int "hops" 2 (Inject.my_hops ())));
    case "arm resets counters, disarm preserves them" (fun () ->
        with_plan
          { Inject.seed = 6; rules_for = (fun _ -> [ Inject.rule Inject.Yield ]) }
          (fun () ->
            Inject.enroll ~slot:0;
            Inject.hit Site.Find_hop);
        check Alcotest.int "kept after disarm" 1 (Inject.totals ()).Inject.yields;
        with_plan
          { Inject.seed = 7; rules_for = (fun _ -> []) }
          (fun () ->
            check Alcotest.int "zeroed by arm" 0 (Inject.totals ()).Inject.yields));
    case "enrollment does not survive re-arm" (fun () ->
        Inject.arm
          { Inject.seed = 8; rules_for = (fun _ -> [ Inject.rule Inject.Crash ]) };
        Inject.enroll ~slot:0;
        (* New plan: the old enrollment must be invalidated, so this hit
           must not crash even though the new plan also crashes slot 0. *)
        Inject.arm
          { Inject.seed = 9; rules_for = (fun _ -> [ Inject.rule Inject.Crash ]) };
        Inject.hit Site.Find_hop;
        check Alcotest.int "no crash" 0 (Inject.totals ()).Inject.crashes;
        Inject.disarm ());
    case "negative slot rejected" (fun () ->
        with_plan
          { Inject.seed = 10; rules_for = (fun _ -> []) }
          (fun () ->
            try
              Inject.enroll ~slot:(-1);
              Alcotest.fail "expected Invalid_argument"
            with Invalid_argument _ -> ()));
  ]

(* ---------------------------------------------------------- armed sites *)

(* The MakeSet extensions and the ranked variant carry their own fault
   sites: prove each site is actually wired by crashing at it, and that
   the structure tolerates the abandoned operation. *)

let crash_at sites =
  { Inject.seed = 20; rules_for = (fun _ -> [ Inject.rule ~sites Inject.Crash ]) }

let armed_site_tests =
  [
    case "growable make_set crashes at Make_set_publish, slot stays usable"
      (fun () ->
        let d = Dsu.Growable.create ~capacity:8 () in
        let a = Dsu.Growable.make_set d in
        with_plan
          (crash_at [ Site.Make_set_publish ])
          (fun () ->
            Inject.enroll ~slot:0;
            (try
               ignore (Dsu.Growable.make_set d : int);
               Alcotest.fail "expected Crashed"
             with Inject.Crashed (site, _) ->
               check Alcotest.bool "site" true (site = Site.Make_set_publish)));
        (* The crash abandoned the publish after the slot was claimed: a
           fresh make_set must still work and the earlier element must
           still answer queries. *)
        let b = Dsu.Growable.make_set d in
        check Alcotest.bool "fresh element distinct" false
          (Dsu.Growable.same_set d a b);
        Dsu.Growable.unite d a b;
        check Alcotest.bool "united" true (Dsu.Growable.same_set d a b));
    case "unbounded make_set crashes at a chunk-publish site" (fun () ->
        let d = Dsu.Growable_unbounded.create ~chunk_size:2 () in
        ignore (Dsu.Growable_unbounded.make_set d : int);
        ignore (Dsu.Growable_unbounded.make_set d : int);
        with_plan
          (crash_at [ Site.Chunk_publish_pre; Site.Chunk_publish_post ])
          (fun () ->
            Inject.enroll ~slot:0;
            (* The third make_set must grow a new chunk and hit a publish
               site on the way. *)
            try
              ignore (Dsu.Growable_unbounded.make_set d : int);
              Alcotest.fail "expected Crashed"
            with Inject.Crashed (site, _) ->
              check Alcotest.bool "publish site" true
                (site = Site.Chunk_publish_pre || site = Site.Chunk_publish_post));
        (* Growth still works after the abandoned publish. *)
        let x = Dsu.Growable_unbounded.make_set d in
        let y = Dsu.Growable_unbounded.make_set d in
        Dsu.Growable_unbounded.unite d x y;
        check Alcotest.bool "united" true (Dsu.Growable_unbounded.same_set d x y));
    case "ranked unite crashes at Rank_read, forest stays valid" (fun () ->
        let d = Dsu.Packed.Native.create 32 in
        with_plan
          (crash_at [ Site.Rank_read ])
          (fun () ->
            Inject.enroll ~slot:0;
            try
              Dsu.Packed.Native.unite d 0 1;
              Alcotest.fail "expected Crashed"
            with Inject.Crashed (site, _) ->
              check Alcotest.bool "site" true (site = Site.Rank_read));
        (* The abandoned unite installed at most one CAS: re-running it
           completes, and the forest validates under the rank order. *)
        Dsu.Packed.Native.unite d 0 1;
        check Alcotest.bool "united" true (Dsu.Packed.Native.same_set d 0 1);
        let r =
          Forest_check.check
            ~prio:(Dsu.Packed.Native.id d)
            (Dsu.Packed.Native.parents_snapshot d)
        in
        check Alcotest.bool "forest ok" true (Forest_check.ok r));
  ]

(* ---------------------------------------------------------- tuned path *)

(* The memory-order-tuned hot path (relaxed/acquire loads, weak split
   CAS, link backoff) reuses the instrumented twins, so every fault site
   must keep firing when the structure is created with
   [~memory_order:Relaxed_reads] — including inside the bulk kernels.
   These are regression tests against the tuning silently bypassing
   injection. *)

let tuned_create ?(n = 256) ~seed () =
  Dsu.Native.create ~memory_order:Dsu.Memory_order.Relaxed_reads ~seed n

let tuned_site_tests =
  [
    case "tuned path still counts Find_hop hits" (fun () ->
        let d = tuned_create ~seed:31 () in
        with_plan
          { Inject.seed = 30; rules_for = (fun _ -> []) }
          (fun () ->
            Inject.enroll ~slot:0;
            let rng = Repro_util.Rng.create 7 in
            for _ = 1 to 300 do
              Dsu.Native.unite d (Repro_util.Rng.int rng 256)
                (Repro_util.Rng.int rng 256)
            done;
            for i = 0 to 255 do
              ignore (Dsu.Native.find d i : int)
            done;
            check Alcotest.bool "hits recorded" true
              ((Inject.totals ()).Inject.hits > 0);
            check Alcotest.bool "hops recorded" true (Inject.my_hops () > 0)));
    case "split CAS sites still crash the tuned find" (fun () ->
        let d = tuned_create ~seed:33 () in
        (* Build depth while disarmed so the crash plan only sees finds. *)
        let rng = Repro_util.Rng.create 9 in
        for _ = 1 to 400 do
          Dsu.Native.unite d (Repro_util.Rng.int rng 256)
            (Repro_util.Rng.int rng 256)
        done;
        with_plan
          (crash_at [ Site.Split_cas_pre; Site.Split_cas_post ])
          (fun () ->
            Inject.enroll ~slot:0;
            let crashed = ref false in
            (try
               for i = 0 to 255 do
                 ignore (Dsu.Native.find d i : int)
               done
             with Inject.Crashed (site, _) ->
               crashed := true;
               check Alcotest.bool "split site" true
                 (site = Site.Split_cas_pre || site = Site.Split_cas_post));
            check Alcotest.bool "a split fired" true !crashed);
        (* The abandoned split is harmless: queries and the forest audit
           still pass. *)
        for i = 0 to 255 do
          ignore (Dsu.Native.find d i : int)
        done;
        let r =
          Forest_check.check ~prio:(Dsu.Native.id d)
            (Dsu.Native.parents_snapshot d)
        in
        check Alcotest.bool "forest ok" true (Forest_check.ok r));
    case "Link_cas_pre still crashes inside unite_batch" (fun () ->
        let d = tuned_create ~seed:35 () in
        let xs = Array.init 128 (fun i -> i) in
        let ys = Array.init 128 (fun i -> i + 128) in
        with_plan
          (crash_at [ Site.Link_cas_pre ])
          (fun () ->
            Inject.enroll ~slot:0;
            try
              Dsu.Native.unite_batch d xs ys;
              Alcotest.fail "expected Crashed"
            with Inject.Crashed (site, _) ->
              check Alcotest.bool "link site" true (site = Site.Link_cas_pre));
        (* Re-running the abandoned batch disarmed completes it. *)
        Dsu.Native.unite_batch d xs ys;
        for i = 0 to 127 do
          check Alcotest.bool "pair united" true
            (Dsu.Native.same_set d xs.(i) ys.(i))
        done;
        let r =
          Forest_check.check ~prio:(Dsu.Native.id d)
            (Dsu.Native.parents_snapshot d)
        in
        check Alcotest.bool "forest ok" true (Forest_check.ok r));
    case "same_set_batch traversals still count Find_hop" (fun () ->
        let d = tuned_create ~seed:37 () in
        let rng = Repro_util.Rng.create 11 in
        for _ = 1 to 300 do
          Dsu.Native.unite d (Repro_util.Rng.int rng 256)
            (Repro_util.Rng.int rng 256)
        done;
        let xs = Array.init 128 (fun i -> i) in
        let ys = Array.init 128 (fun i -> 255 - i) in
        with_plan
          { Inject.seed = 36; rules_for = (fun _ -> []) }
          (fun () ->
            Inject.enroll ~slot:0;
            ignore (Dsu.Native.same_set_batch d xs ys : bool array);
            check Alcotest.bool "hops recorded" true (Inject.my_hops () > 0)));
  ]

(* --------------------------------------------------------- Forest_check *)

let violations r = List.length r.Forest_check.violations

let forest_tests =
  [
    case "valid forest passes" (fun () ->
        (* 0 -> 2, 1 -> 2, 2 root; 3 -> 4, 4 root *)
        let r = Forest_check.check [| 2; 2; 2; 4; 4 |] in
        check Alcotest.bool "ok" true (Forest_check.ok r);
        check Alcotest.int "roots" 2 r.Forest_check.roots;
        check Alcotest.int "max depth" 1 r.Forest_check.max_depth);
    case "empty forest passes" (fun () ->
        check Alcotest.bool "ok" true (Forest_check.ok (Forest_check.check [||])));
    case "seeded 2-cycle is detected" (fun () ->
        let r = Forest_check.check [| 1; 0; 2 |] in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        check Alcotest.bool "reports a cycle" true
          (List.exists
             (function Forest_check.Cycle _ -> true | _ -> false)
             r.Forest_check.violations));
    case "seeded long cycle is detected with its members" (fun () ->
        (* 2 -> 3 -> 4 -> 2, plus 0,1 hanging off the cycle *)
        let r = Forest_check.check ~prio:(fun _ -> 0) [| 2; 2; 3; 4; 2 |] in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        let cyc =
          List.find_map
            (function Forest_check.Cycle c -> Some c | _ -> None)
            r.Forest_check.violations
        in
        match cyc with
        | None -> Alcotest.fail "no cycle reported"
        | Some members ->
          check Alcotest.int "cycle length" 3 (List.length members);
          List.iter
            (fun m -> check Alcotest.bool "member" true (List.mem m [ 2; 3; 4 ]))
            members);
    case "priority-order violation is detected" (fun () ->
        (* parent 0 has lower priority than child 1 *)
        let r = Forest_check.check [| 0; 0 |] ~prio:(fun i -> [| 5; 9 |].(i)) in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        check Alcotest.bool "order violation" true
          (List.exists
             (function
               | Forest_check.Order { node = 1; parent = 0 } -> true
               | _ -> false)
             r.Forest_check.violations));
    case "out-of-range parent is detected" (fun () ->
        let r = Forest_check.check [| 7 |] in
        check Alcotest.bool "not ok" false (Forest_check.ok r);
        check Alcotest.int "one violation" 1 (violations r));
    case "quiescent native forest validates" (fun () ->
        let d = Dsu.Native.create ~seed:42 256 in
        let rng = Repro_util.Rng.create 17 in
        for _ = 1 to 400 do
          Dsu.Native.unite d
            (Repro_util.Rng.int rng 256)
            (Repro_util.Rng.int rng 256)
        done;
        let r =
          Forest_check.check ~prio:(Dsu.Native.id d) (Dsu.Native.parents_snapshot d)
        in
        check Alcotest.bool "ok" true (Forest_check.ok r));
    case "json shape" (fun () ->
        let r = Forest_check.check [| 1; 0 |] in
        match Forest_check.to_json r with
        | Repro_obs.Json.Obj fields ->
          check Alcotest.bool "has violations key" true
            (List.mem_assoc "violations" fields)
        | _ -> Alcotest.fail "expected an object");
  ]

(* ---------------------------------------------------------------- Chaos *)

(* Scaled-down but structurally faithful scenarios: enough ops that every
   planned crash countdown is reached, small enough for the test suite. *)
let chaos_config =
  {
    Chaos.default_config with
    Chaos.n = 512;
    ops_per_domain = 4_000;
    domains = 8;
    crash_domains = 2;
    crash_after = 500;
    stall_prob = 0.02;
    stall_len = 16;
  }

let chaos_tests =
  [
    case "2-of-8 crash demo: survivors finish, audit passes" (fun () ->
        let s =
          Chaos.run_scenario ~config:chaos_config ~layout:Harness.Scalability.Flat
            ~policy:Dsu.Find_policy.Two_try_splitting ()
        in
        check Alcotest.int "both victims crashed" 2 (List.length s.Chaos.crashed);
        List.iter
          (fun (slot, _) -> check Alcotest.bool "victim slot" true (slot < 2))
          s.Chaos.crashed;
        check Alcotest.bool "no unexpected failures" true (s.Chaos.failures = []);
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s);
        check Alcotest.bool "checks ran" true (List.length s.Chaos.checks >= 8);
        check Alcotest.bool "forest reported" true (s.Chaos.forest <> None);
        check Alcotest.bool "crashes counted" true
          (s.Chaos.fault_totals.Inject.crashes >= 2));
    case "crash-free scenario completes everything" (fun () ->
        let config =
          { chaos_config with Chaos.crash_domains = 0; domains = 4; ops_per_domain = 2_000 }
        in
        let s =
          Chaos.run_scenario ~config ~layout:Harness.Scalability.Flat
            ~policy:Dsu.Find_policy.One_try_splitting ()
        in
        check Alcotest.bool "nobody crashed" true (s.Chaos.crashed = []);
        Array.iter
          (fun c -> check Alcotest.int "all ops done" 2_000 c)
          s.Chaos.completed;
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s));
    case "packed layout passes the same audit" (fun () ->
        let config = { chaos_config with Chaos.ops_per_domain = 2_000; domains = 4; crash_domains = 1; crash_after = 300 } in
        let s =
          Chaos.run_scenario ~config ~layout:Harness.Scalability.Packed
            ~policy:Dsu.Find_policy.Two_try_splitting ()
        in
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s));
    case "flat-padded layout passes the same audit" (fun () ->
        let config = { chaos_config with Chaos.ops_per_domain = 2_000; domains = 4; crash_domains = 1; crash_after = 300 } in
        let s =
          Chaos.run_scenario ~config ~layout:Harness.Scalability.Padded
            ~policy:Dsu.Find_policy.Two_try_splitting ()
        in
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s));
    case "validate:false skips the audit" (fun () ->
        let config =
          { chaos_config with Chaos.validate = false; domains = 2; crash_domains = 0; ops_per_domain = 500 }
        in
        let s =
          Chaos.run_scenario ~config ~layout:Harness.Scalability.Flat
            ~policy:Dsu.Find_policy.Two_try_splitting ()
        in
        check Alcotest.bool "no checks" true (s.Chaos.checks = []);
        check Alcotest.bool "no forest" true (s.Chaos.forest = None));
    case "chaos json is well-formed and self-consistent" (fun () ->
        let config =
          { chaos_config with Chaos.domains = 4; crash_domains = 1; ops_per_domain = 1_500; crash_after = 200 }
        in
        let scenarios = Chaos.run_all ~config () in
        let json = Chaos.to_json ~config scenarios in
        let reparsed = Repro_obs.Json.parse_exn (Repro_obs.Json.to_string json) in
        (match Repro_obs.Json.member "schema" reparsed with
        | Some (Repro_obs.Json.String s) ->
          check Alcotest.string "schema" "dsu-chaos/v1" s
        | _ -> Alcotest.fail "missing schema");
        match Repro_obs.Json.member "ok" reparsed with
        | Some (Repro_obs.Json.Bool ok) ->
          check Alcotest.bool "ok agrees" (List.for_all Chaos.scenario_ok scenarios) ok
        | _ -> Alcotest.fail "missing ok");
    case "invalid configs rejected" (fun () ->
        let bad config =
          try
            ignore
              (Chaos.run_scenario ~config ~layout:Harness.Scalability.Flat
                 ~policy:Dsu.Find_policy.Two_try_splitting ());
            false
          with Invalid_argument _ -> true
        in
        check Alcotest.bool "domains 0" true
          (bad { chaos_config with Chaos.domains = 0 });
        check Alcotest.bool "crash > domains" true
          (bad { chaos_config with Chaos.crash_domains = 99 });
        check Alcotest.bool "stall_prob > 1" true
          (bad { chaos_config with Chaos.stall_prob = 1.5 }));
  ]

let () =
  Alcotest.run "fault"
    [
      ("site", site_tests);
      ("inject", inject_tests);
      ("armed_sites", armed_site_tests);
      ("tuned_sites", tuned_site_tests);
      ("forest_check", forest_tests);
      ("chaos", chaos_tests);
    ]
