(* Tests for the crash-recovery subsystem: the snapshot codecs round-trip
   all three kinds and still decode the retired kinds' files, corrupted
   and truncated files are rejected as errors,
   repair-on-restart fixes seeded storage corruption while provably only
   splitting sets, and a crashed multi-domain run snapshots, restores and
   resumes to a clean full audit. *)

module Snap = Repro_recover.Snapshot
module Repair = Repro_recover.Repair
module Restore = Repro_recover.Restore
module Chaos = Harness.Chaos

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let rng_ops ~seed ~n ~ops apply =
  let rng = Repro_util.Rng.create seed in
  for _ = 1 to ops do
    apply (Repro_util.Rng.int rng n) (Repro_util.Rng.int rng n)
  done

(* One populated instance per layout, snapshotted at quiescence. *)

let native_snap () =
  let d = Dsu.Native.create ~seed:5 128 in
  rng_ops ~seed:11 ~n:128 ~ops:200 (Dsu.Native.unite d);
  Snap.of_native d

let growable_snap () =
  let d = Dsu.Growable.create ~seed:5 ~capacity:256 () in
  for _ = 1 to 100 do
    ignore (Dsu.Growable.make_set d : int)
  done;
  rng_ops ~seed:11 ~n:100 ~ops:150 (Dsu.Growable.unite d);
  Snap.of_growable d

let packed_snap () =
  let d = Dsu.Packed.Native.create 128 in
  rng_ops ~seed:11 ~n:128 ~ops:200 (Dsu.Packed.Native.unite d);
  Snap.of_native d

let all_layouts =
  [
    ("flat", native_snap); ("growable", growable_snap); ("packed", packed_snap);
  ]

(* ---------------------------------------------------------------- codec *)

let roundtrip name encode decode snap =
  match decode (encode snap) with
  | Ok snap' -> check Alcotest.bool (name ^ " equal") true (Snap.equal snap snap')
  | Error e -> Alcotest.failf "%s decode failed: %s" name e

let codec_tests =
  List.concat_map
    (fun (layout, make) ->
      [
        case (layout ^ ": snapshot is a valid forest") (fun () ->
            check Alcotest.bool "ok" true (Snap.ok (make ())));
        case (layout ^ ": binary round-trip") (fun () ->
            roundtrip "binary" Snap.to_binary_string Snap.of_binary_string
              (make ()));
        case (layout ^ ": json round-trip") (fun () ->
            roundtrip "json" Snap.to_json_string Snap.of_json_string (make ()));
        case (layout ^ ": file round-trip auto-detects both formats")
          (fun () ->
            let snap = make () in
            List.iter
              (fun format ->
                let path = Filename.temp_file "dsu_snap" ".snap" in
                Fun.protect
                  ~finally:(fun () -> Sys.remove path)
                  (fun () ->
                    Snap.write_file ~format path snap;
                    match Snap.read_file path with
                    | Ok snap' ->
                      check Alcotest.bool "equal" true (Snap.equal snap snap')
                    | Error e -> Alcotest.failf "read_file: %s" e))
              [ Snap.Binary; Snap.Json ]);
        case (layout ^ ": restore round-trips the snapshot") (fun () ->
            let snap = make () in
            let restored = Restore.restore snap in
            check Alcotest.bool "re-snapshot equal" true
              (Snap.equal snap (Restore.snapshot restored));
            check Alcotest.string "kind" layout
              (Snap.kind_to_string (Restore.kind restored)));
      ])
    all_layouts
  @ [
      case "kind strings round-trip" (fun () ->
          List.iter
            (fun k ->
              check Alcotest.bool "round-trip" true
                (Snap.kind_of_string (Snap.kind_to_string k) = Some k))
            [ Snap.Flat; Snap.Growable; Snap.Packed ]);
      case "corrupted byte fails the checksum" (fun () ->
          let s = Snap.to_binary_string (native_snap ()) in
          let b = Bytes.of_string s in
          Bytes.set b (Bytes.length b / 2)
            (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0xff));
          match Snap.of_binary_string (Bytes.to_string b) with
          | Ok _ -> Alcotest.fail "corrupted snapshot accepted"
          | Error e ->
            check Alcotest.bool "mentions checksum" true
              (String.length e >= 8 && String.sub e 0 8 = "checksum"));
      case "truncated file is rejected" (fun () ->
          let s = Snap.to_binary_string (native_snap ()) in
          List.iter
            (fun len ->
              match Snap.of_binary_string (String.sub s 0 len) with
              | Ok _ -> Alcotest.failf "truncation to %d accepted" len
              | Error _ -> ())
            [ 0; 4; 12; String.length s - 1 ]);
      case "bad magic is rejected" (fun () ->
          match Snap.of_binary_string (String.make 64 'x') with
          | Ok _ -> Alcotest.fail "garbage accepted"
          | Error e ->
            check Alcotest.bool "mentions magic" true
              (String.length e >= 9 && String.sub e 0 9 = "bad magic"));
      case "tampered json checksum is rejected" (fun () ->
          let s = Snap.to_json_string (native_snap ()) in
          (* Retarget the first parents entry textually without touching
             the checksum field. *)
          let needle = "\"parents\":[" in
          let rec index_of i =
            if i + String.length needle > String.length s then None
            else if String.sub s i (String.length needle) = needle then Some i
            else index_of (i + 1)
          in
          match index_of 0 with
          | None -> Alcotest.fail "tamper point not found"
          | Some i ->
            let b = Bytes.of_string s in
            let j = i + String.length needle in
            Bytes.set b j (if Bytes.get b j = '0' then '1' else '0');
            let tampered = Bytes.to_string b in
            match Snap.of_json_string tampered with
            | Ok _ -> Alcotest.fail "tampered json accepted"
            | Error _ -> ());
      case "json junk is an error, not an exception" (fun () ->
          List.iter
            (fun junk ->
              match Snap.of_json_string junk with
              | Ok _ -> Alcotest.failf "junk accepted: %s" junk
              | Error _ -> ())
            [ "{}"; "[]"; "not json at all"; "{\"schema\":\"wrong/v9\"}" ]);
      case "packed: corrupt file on disk is rejected by read_file" (fun () ->
          let snap = packed_snap () in
          let path = Filename.temp_file "dsu_snap" ".snap" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Snap.write_file ~format:Snap.Binary path snap;
              let data =
                let ic = open_in_bin path in
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              let b = Bytes.of_string data in
              let mid = Bytes.length b / 2 in
              Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x55));
              let oc = open_out_bin path in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_bytes oc b);
              match Snap.read_file path with
              | Ok _ -> Alcotest.fail "corrupt packed snapshot accepted"
              | Error _ -> ()));
      case "packed: restore rejects fields the word cannot hold" (fun () ->
          (* A decoded snapshot can still be unrepresentable in the packed
             word: ranks above the 21-bit field and out-of-range parents
             must surface as restore errors, not silent truncation. *)
          let base = packed_snap () in
          let with_prio i v =
            let prios = Array.copy base.Snap.prios in
            prios.(i) <- v;
            { base with Snap.prios }
          in
          let with_parent i v =
            let parents = Array.copy base.Snap.parents in
            parents.(i) <- v;
            { base with Snap.parents }
          in
          List.iter
            (fun (label, snap) ->
              match Restore.restore_result snap with
              | Ok _ -> Alcotest.failf "%s accepted" label
              | Error _ -> ())
            [
              ("oversized rank", with_prio 0 (Dsu.Packed.max_rank + 1));
              ("negative rank", with_prio 0 (-1));
              ("out-of-range parent", with_parent 3 base.Snap.n);
            ]);
      case "packed: restore-unite-resnapshot agrees with the quick-find oracle"
        (fun () ->
          (* Resume semantics: operations applied to a restored packed
             instance must partition identically to the same operations on
             a quick-find oracle seeded with the snapshot's partition. *)
          let snap = packed_snap () in
          let restored = Restore.restore snap in
          (match restored with
          | Restore.Native d when Dsu.Native.by_rank d -> ()
          | _ -> Alcotest.fail "packed snapshot restored to another kind");
          let oracle = Sequential.Quick_find.create snap.Snap.n in
          Array.iteri (Sequential.Quick_find.unite oracle) snap.Snap.parents;
          rng_ops ~seed:23 ~n:snap.Snap.n ~ops:150 (fun x y ->
              Restore.unite restored x y;
              Sequential.Quick_find.unite oracle x y);
          for x = 0 to snap.Snap.n - 1 do
            for y = x + 1 to min (snap.Snap.n - 1) (x + 7) do
              check Alcotest.bool
                (Printf.sprintf "same_set %d %d" x y)
                (Sequential.Quick_find.same_set oracle x y)
                (Restore.same_set restored x y)
            done
          done;
          check Alcotest.int "set counts agree"
            (Sequential.Quick_find.count_sets oracle)
            (Restore.count_sets restored);
          check Alcotest.bool "re-snapshot still a valid forest" true
            (Snap.ok (Restore.snapshot restored)));
    ]
  @ List.map
      (fun (layout, make) ->
        case (layout ^ ": padded restore round-trips the snapshot") (fun () ->
            let snap = make () in
            let restored = Restore.restore ~padded:true snap in
            check Alcotest.bool "re-snapshot equal" true
              (Snap.equal snap (Restore.snapshot restored));
            check Alcotest.string "kind" layout
              (Snap.kind_to_string (Restore.kind restored))))
      [ ("flat", native_snap); ("packed", packed_snap) ]
  @ [
      case "of_native takes its kind from the handle's linking rule"
        (fun () ->
          let n = 64 in
          let rank = Dsu.Packed.Native.create n
          and ids = Dsu.Native.create ~seed:9 n in
          rng_ops ~seed:3 ~n ~ops:80 (fun x y ->
              Dsu.Native.unite rank x y;
              Dsu.Native.unite ids x y);
          let s = Snap.of_native rank in
          check Alcotest.string "rank kind" "packed" (Snap.kind_to_string s.Snap.kind);
          check Alcotest.(array int) "ranks as prios"
            (Array.init n (Dsu.Native.id rank))
            s.Snap.prios;
          check Alcotest.bool "ranks, not ids: in [0, lg n], some above 0"
            true
            (Array.for_all (fun r -> r >= 0 && r <= 6) s.Snap.prios
            && Array.exists (fun r -> r > 0) s.Snap.prios);
          check Alcotest.string "random-id kind" "flat"
            (Snap.kind_to_string (Snap.of_native ids).Snap.kind));
    ]

(* ------------------------------------------------------ legacy fixtures *)

(* Snapshots written by the two retired layouts (see fixtures/README.md):
   kind byte 1 / "boxed" decodes as Flat, kind byte 3 / "rank" as Packed.
   Both recorded the partition of the same 48 unites over n = 64. *)
let fixture_n = 64

let fixture_oracle () =
  let q = Sequential.Quick_find.create fixture_n in
  for i = 0 to 47 do
    Sequential.Quick_find.unite q i (((i * 7) + 5) mod fixture_n)
  done;
  q

let legacy_fixtures =
  [
    ("snapshot_v2_boxed.bin", Snap.Flat);
    ("snapshot_v2_boxed.json", Snap.Flat);
    ("snapshot_v2_rank.bin", Snap.Packed);
    ("snapshot_v2_rank.json", Snap.Packed);
  ]

let legacy_tests =
  List.map
    (fun (file, kind) ->
      case (file ^ " decodes, restores and validates") (fun () ->
          match Snap.read_file (Filename.concat "fixtures" file) with
          | Error e -> Alcotest.failf "%s: %s" file e
          | Ok snap ->
            check Alcotest.string "decoded kind" (Snap.kind_to_string kind)
              (Snap.kind_to_string snap.Snap.kind);
            check Alcotest.int "n" fixture_n snap.Snap.n;
            let restored = Restore.restore snap in
            check Alcotest.string "restored kind" (Snap.kind_to_string kind)
              (Snap.kind_to_string (Restore.kind restored));
            let q = fixture_oracle () in
            check Alcotest.int "sets"
              (Sequential.Quick_find.count_sets q)
              (Restore.count_sets restored);
            for x = 0 to fixture_n - 1 do
              for y = x + 1 to fixture_n - 1 do
                check Alcotest.bool
                  (Printf.sprintf "same_set %d %d" x y)
                  (Sequential.Quick_find.same_set q x y)
                  (Restore.same_set restored x y)
              done
            done;
            (* What [dsu_workload restore --validate] checks. *)
            check Alcotest.bool "validates" true
              (Snap.ok (Restore.snapshot restored))))
    legacy_fixtures
  @ List.map
      (fun (file, kind) ->
        case (file ^ " resumes and re-snapshots as its successor kind")
          (fun () ->
            (* Resuming from a legacy file: later unites partition like the
               oracle, and the next snapshot is written under the current
               kind, which reads back unchanged. *)
            match Snap.read_file (Filename.concat "fixtures" file) with
            | Error e -> Alcotest.failf "%s: %s" file e
            | Ok snap ->
              let restored =
                match Restore.restore_result snap with
                | Ok r -> r
                | Error e -> Alcotest.failf "restore_result: %s" e
              in
              let q = fixture_oracle () in
              rng_ops ~seed:29 ~n:fixture_n ~ops:40 (fun x y ->
                  Restore.unite restored x y;
                  Sequential.Quick_find.unite q x y);
              check Alcotest.int "sets"
                (Sequential.Quick_find.count_sets q)
                (Restore.count_sets restored);
              for x = 0 to fixture_n - 1 do
                check Alcotest.bool
                  (Printf.sprintf "same_set 0 %d" x)
                  (Sequential.Quick_find.same_set q 0 x)
                  (Restore.same_set restored 0 x)
              done;
              let snap' = Restore.snapshot restored in
              check Alcotest.string "re-snapshot kind"
                (Snap.kind_to_string kind)
                (Snap.kind_to_string snap'.Snap.kind);
              match Snap.of_binary_string (Snap.to_binary_string snap') with
              | Ok back ->
                check Alcotest.bool "reads back" true (Snap.equal snap' back)
              | Error e -> Alcotest.failf "re-snapshot decode: %s" e))
      legacy_fixtures
  @ [
      case "retired kind names are not current kind strings" (fun () ->
          (* They decode only from files; no option accepts them. *)
          List.iter
            (fun name ->
              check Alcotest.bool name true (Snap.kind_of_string name = None))
            [ "boxed"; "rank" ]);
      case "a legacy json kind is covered by the checksum" (fun () ->
          let path = Filename.concat "fixtures" "snapshot_v2_boxed.json" in
          let text = In_channel.with_open_bin path In_channel.input_all in
          let needle = "\"boxed\"" in
          let i =
            let rec go i =
              if i + String.length needle > String.length text then
                Alcotest.fail "fixture names no boxed kind"
              else if String.sub text i (String.length needle) = needle then i
              else go (i + 1)
            in
            go 0
          in
          let tampered =
            String.sub text 0 i ^ "\"flat\""
            ^ String.sub text (i + String.length needle)
                (String.length text - i - String.length needle)
          in
          match Snap.of_json_string tampered with
          | Ok _ -> Alcotest.fail "a rewritten kind passed the checksum"
          | Error _ -> ());
      case "an unknown kind byte is still rejected" (fun () ->
          (* Rewrite a valid body's kind byte to 5 and re-seal the CRC, so
             only the kind is wrong. *)
          let s = Snap.to_binary_string (native_snap ()) in
          let body = Bytes.of_string (String.sub s 8 (String.length s - 12)) in
          Bytes.set body 0 (Char.chr 5);
          let crc = Bytes.create 4 in
          Bytes.set_int32_le crc 0
            (Int32.of_int (Repro_util.Crc32.string (Bytes.to_string body)));
          match
            Snap.of_binary_string
              (String.sub s 0 8 ^ Bytes.to_string body ^ Bytes.to_string crc)
          with
          | Ok _ -> Alcotest.fail "kind byte 5 accepted"
          | Error e ->
            check Alcotest.string "message" "unknown snapshot kind byte 5" e);
    ]

(* --------------------------------------------------------------- repair *)

let mk_snap parents prios =
  {
    Snap.kind = Snap.Flat;
    n = Array.length parents;
    capacity = Array.length parents;
    epoch = 0;
    parents;
    prios;
  }

let repair_tests =
  [
    case "clean snapshot: zero fixes" (fun () ->
        List.iter
          (fun (_, make) ->
            let snap = make () in
            let snap', fixes = Repair.repair snap in
            check Alcotest.int "no fixes" 0 (List.length fixes);
            check Alcotest.bool "unchanged" true (Snap.equal snap snap'))
          all_layouts);
    case "seeded 2-cycle is broken at the min-priority node" (fun () ->
        let snap = mk_snap [| 1; 0; 2 |] [| 3; 7; 1 |] in
        let snap', fixes = Repair.repair snap in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "has a cycle fix" true
          (List.exists (fun f -> f.Repair.reason = Repair.Cycle) fixes);
        (* node 0 has the lower priority: it must be the one rooted, and the
           surviving 1 -> 0 edge keeps the component together. *)
        check Alcotest.int "0 rooted" 0 snap'.Snap.parents.(0);
        check Alcotest.bool "refines" true
          (Repair.refines ~fine:snap' ~coarse:snap));
    case "priority-order violation is rooted" (fun () ->
        (* 1 -> 0 but prio(1) > prio(0): Lemma 3.1 forbids the edge. *)
        let snap = mk_snap [| 0; 0 |] [| 5; 9 |] in
        let snap', fixes = Repair.repair snap in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "order fix" true
          (List.exists
             (fun f -> f.Repair.node = 1 && f.Repair.reason = Repair.Order)
             fixes);
        check Alcotest.bool "refines" true
          (Repair.refines ~fine:snap' ~coarse:snap));
    case "out-of-range parent is rooted" (fun () ->
        let snap = mk_snap [| 7; 1 |] [| 1; 2 |] in
        let snap', fixes = Repair.repair snap in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "range fix on 0" true
          (List.exists
             (fun f -> f.Repair.node = 0 && f.Repair.reason = Repair.Out_of_range)
             fixes);
        check Alcotest.int "0 self-rooted" 0 snap'.Snap.parents.(0));
    case "repair of a mangled real snapshot refines it" (fun () ->
        let snap = native_snap () in
        let parents = Array.copy snap.Snap.parents in
        (* Mangle three nodes: a 2-cycle and an out-of-range parent. *)
        parents.(0) <- 1;
        parents.(1) <- 0;
        parents.(2) <- snap.Snap.n + 41;
        let bad = { snap with Snap.parents } in
        let snap', fixes = Repair.repair bad in
        check Alcotest.bool "repaired ok" true (Snap.ok snap');
        check Alcotest.bool "some fixes" true (fixes <> []);
        check Alcotest.bool "refines the corrupted snapshot" true
          (Repair.refines ~fine:snap' ~coarse:bad));
    case "refines rejects a merge" (fun () ->
        (* fine glues {0,1}; coarse keeps them apart. *)
        let fine = mk_snap [| 0; 0 |] [| 2; 1 |] in
        let coarse = mk_snap [| 0; 1 |] [| 2; 1 |] in
        check Alcotest.bool "not a refinement" false
          (Repair.refines ~fine ~coarse);
        check Alcotest.bool "other direction holds" true
          (Repair.refines ~fine:coarse ~coarse:fine));
    case "restore_result reports invalid snapshots as errors" (fun () ->
        let bad = mk_snap [| 1; 0 |] [| 1; 0 |] in
        (match Restore.restore_result bad with
        | Ok _ -> Alcotest.fail "cyclic snapshot restored"
        | Error _ -> ());
        let repaired, _ = Repair.repair bad in
        match Restore.restore_result repaired with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "repaired snapshot rejected: %s" e);
  ]

(* ------------------------------------------------- crash-resume drill *)

let recovery_config =
  {
    Chaos.default_config with
    Chaos.n = 512;
    ops_per_domain = 3_000;
    domains = 4;
    crash_domains = 2;
    crash_after = 400;
    stall_prob = 0.02;
    stall_len = 16;
  }

let find_check name checks =
  match List.find_opt (fun c -> c.Chaos.check_name = name) checks with
  | Some c -> c
  | None -> Alcotest.failf "check %s not reported" name

let recovery_tests =
  [
    case "4-domain crash -> snapshot -> repair -> resume passes the audit"
      (fun () ->
        let s, r =
          Chaos.run_recovery_scenario ~config:recovery_config
            ~layout:Harness.Scalability.Flat
            ~policy:Dsu.Find_policy.Two_try_splitting ()
        in
        check Alcotest.bool "phase-1 scenario ok" true (Chaos.scenario_ok s);
        check Alcotest.bool "recovery ok" true (Chaos.recovery_ok r);
        check Alcotest.int "no repair fixes (Theorem 3.4)" 0
          (List.length r.Chaos.fixes);
        check Alcotest.int "both crashed slots resumed" 2
          (List.length r.Chaos.resumed_slots);
        check Alcotest.bool "resumed some operations" true
          (r.Chaos.resumed_ops > 0);
        List.iter
          (fun name ->
            let c = find_check name r.Chaos.recovery_checks in
            check Alcotest.bool name true c.Chaos.passed)
          [ "codec-roundtrip"; "repair-clean"; "repair-refines"; "resumed-complete" ];
        (* The resumed audit re-runs the oracle sweep: the sameset-false
           check against the sequential oracle must be among the passes. *)
        let oracle = find_check "sameset-false" r.Chaos.recovery_checks in
        check Alcotest.bool "oracle sweep passed" true oracle.Chaos.passed;
        check Alcotest.bool "crash snapshot itself validates" true
          (Snap.ok r.Chaos.crash_snapshot));
    case "crash-free recovery drill also passes (nothing to resume)"
      (fun () ->
        let config =
          { recovery_config with Chaos.crash_domains = 0; ops_per_domain = 1_000 }
        in
        let s, r =
          Chaos.run_recovery_scenario ~config ~layout:Harness.Scalability.Flat
            ~policy:Dsu.Find_policy.One_try_splitting ()
        in
        check Alcotest.bool "scenario ok" true (Chaos.scenario_ok s);
        check Alcotest.bool "recovery ok" true (Chaos.recovery_ok r);
        check Alcotest.bool "no slots resumed" true (r.Chaos.resumed_slots = []));
    case "resume counters exclude phase-1 operations" (fun () ->
        Repro_obs.Metrics.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Repro_obs.Metrics.set_enabled false)
          (fun () ->
            let _, r =
              Chaos.run_recovery_scenario ~config:recovery_config
                ~layout:Harness.Scalability.Flat
                ~policy:Dsu.Find_policy.Two_try_splitting ()
            in
            let total name samples =
              match List.assoc_opt name samples with Some v -> v | None -> 0
            in
            let p1 = total "dsu_ops_total" r.Chaos.phase1_counters in
            let resumed = total "dsu_ops_total" r.Chaos.resume_counters in
            check Alcotest.bool "phase 1 counted" true (p1 > 0);
            (* The resume-only delta covers the resumed streams, not the
               whole run: it must be well short of phase 1 + resume. *)
            check Alcotest.bool "no double counting" true (resumed < p1)));
    case "recovery json carries the drill's evidence" (fun () ->
        let results = Chaos.run_recovery_all ~config:recovery_config () in
        let json = Chaos.recovery_report_to_json ~config:recovery_config results in
        let reparsed = Repro_obs.Json.parse_exn (Repro_obs.Json.to_string json) in
        (match Repro_obs.Json.member "schema" reparsed with
        | Some (Repro_obs.Json.String s) ->
          check Alcotest.string "schema" "dsu-chaos/v1" s
        | _ -> Alcotest.fail "missing schema");
        match Repro_obs.Json.member "scenarios" reparsed with
        | Some (Repro_obs.Json.List (first :: _)) -> (
          match Repro_obs.Json.member "recovery" first with
          | Some rec_json -> (
            match Repro_obs.Json.member "ok" rec_json with
            | Some (Repro_obs.Json.Bool ok) ->
              check Alcotest.bool "recovery ok in json" true ok
            | _ -> Alcotest.fail "recovery.ok missing")
          | None -> Alcotest.fail "recovery object missing")
        | _ -> Alcotest.fail "scenarios missing");
  ]

let () =
  Alcotest.run "recover"
    [
      ("codec", codec_tests);
      ("legacy", legacy_tests);
      ("repair", repair_tests);
      ("recovery", recovery_tests);
    ]
