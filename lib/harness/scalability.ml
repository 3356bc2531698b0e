module Policy = Dsu.Find_policy
module Order = Dsu.Memory_order
module Rng = Repro_util.Rng
module Table = Repro_util.Table
module J = Repro_obs.Json

(* The layout constructors are re-exported from {!Dsu.Plan} so a plan's
   layout field and a sweep point's layout are the same value. *)
type layout = Dsu.Plan.layout = Flat | Padded | Packed

let all_layouts = Dsu.Plan.all_layouts
let layout_to_string = Dsu.Plan.layout_to_string
let layout_of_string = Dsu.Plan.layout_of_string

type dist = Uniform | Skewed

let all_dists = [ Uniform; Skewed ]
let dist_to_string = function Uniform -> "uniform" | Skewed -> "skewed"

let dist_of_string = function
  | "uniform" -> Some Uniform
  | "skewed" -> Some Skewed
  | _ -> None

type point = {
  layout : layout;
  policy : Policy.t;
  memory_order : Order.t;
  backoff : bool;
  dist : dist;
  domains : int;
  n : int;
  total_ops : int;
  seconds : float;
  mops_per_sec : float;
  failures : (int * string) list;
}

type config = {
  n : int;
  total_ops : int;
  unite_percent : int;
  seed : int;
  domain_counts : int list;
  policies : Policy.t list;
  layouts : layout list;
  memory_orders : Order.t list;
  backoffs : bool list;
  dists : dist list;
}

let default_config =
  {
    n = 1 lsl 16;
    total_ops = 400_000;
    unite_percent = 30;
    seed = 21;
    domain_counts = [ 1; 2; 4; 8 ];
    policies = [ Policy.Two_try_splitting; Policy.One_try_splitting ];
    layouts = [ Flat ];
    memory_orders = [ Order.default ];
    backoffs = [ true ];
    dists = [ Uniform ];
  }

(* The skewed distribution concentrates 80% of all endpoint draws on a hot
   range of [max 16 (n/256)] nodes, so with several domains nearly every
   operation contends on the same few trees — the regime where link-CAS
   backoff and the memory orders matter most.  (A Zipf sampler would need
   per-draw float work inside the generator; a two-level hot/cold mix gets
   the same contention with integer arithmetic only.) *)
let hot_range n = max 16 (n / 256)

let gen_endpoint rng ~n ~dist =
  match dist with
  | Uniform -> Rng.int rng n
  | Skewed -> if Rng.int rng 100 < 80 then Rng.int rng (hot_range n) else Rng.int rng n

(* Per-domain op streams are generated outside the timed section (the
   generator's RNG and list building must not pollute the measurement) and
   handed to the workers as contiguous arrays — see Workload.Op's array
   runners for why. *)
let gen_ops ?(dist = Uniform) ~n ~unite_percent ~seed ~domains ~ops_per_domain
    () =
  Array.init domains (fun k ->
      let rng = Rng.create (seed + (1000 * k)) in
      Array.init ops_per_domain (fun _ ->
          let x = gen_endpoint rng ~n ~dist and y = gen_endpoint rng ~n ~dist in
          if Rng.int rng 100 < unite_percent then Workload.Op.Unite (x, y)
          else Workload.Op.Same_set (x, y)))

(* Every worker body is wrapped so an exception in one domain is captured
   into its slot instead of escaping through [Domain.join]: re-raising
   mid-join would abandon the remaining joins, leaving live domains racing
   on a structure the caller believes quiesced.  All joins always complete;
   failures are reported per-domain afterwards. *)
let time_run ~domains ~(run : int -> unit) =
  let errors = Array.make domains None in
  let t0 = Repro_obs.Clock.now_ns () in
  let handles =
    List.init domains (fun k ->
        Domain.spawn (fun () ->
            try run k
            with e -> errors.(k) <- Some (Printexc.to_string e)))
  in
  List.iter Domain.join handles;
  let seconds = float_of_int (Repro_obs.Clock.now_ns () - t0) /. 1e9 in
  let failures =
    Array.to_list errors
    |> List.mapi (fun k e -> (k, e))
    |> List.filter_map (fun (k, e) -> Option.map (fun msg -> (k, msg)) e)
  in
  (seconds, failures)

let run_plan_point ?(config = default_config) ?(dist = Uniform)
    ~(plan : Dsu.Plan.t) ~domains () =
  if domains < 1 then invalid_arg "Scalability.run_point: domains must be >= 1";
  let { n; total_ops; unite_percent; seed; _ } = config in
  let ops_per_domain = max 1 (total_ops / domains) in
  let ops = gen_ops ~dist ~n ~unite_percent ~seed ~domains ~ops_per_domain () in
  let d = Dsu.Driver.native ~seed plan n in
  let seconds, failures =
    time_run ~domains ~run:(fun k -> Workload.Op.run_native_array d ops.(k))
  in
  let total = ops_per_domain * domains in
  {
    layout = plan.layout;
    policy = plan.compaction;
    memory_order = plan.memory_order;
    backoff = plan.backoff;
    dist;
    domains;
    n;
    total_ops = total;
    seconds;
    mops_per_sec = (float_of_int total /. seconds) /. 1e6;
    failures;
  }

let run_point ?config ?(memory_order = Order.default) ?(backoff = true) ?dist
    ~layout ~policy ~domains () =
  let plan = Dsu.Plan.of_layout ~compaction:policy ~memory_order ~backoff layout in
  run_plan_point ?config ?dist ~plan ~domains ()

let sweep ?(config = default_config) ?progress () =
  let emit p = match progress with None -> () | Some f -> f p in
  List.concat_map
    (fun layout ->
      List.concat_map
        (fun policy ->
          List.concat_map
            (fun memory_order ->
              List.concat_map
                (fun backoff ->
                  List.concat_map
                    (fun dist ->
                      List.map
                        (fun domains ->
                          let p =
                            run_point ~config ~memory_order ~backoff ~dist
                              ~layout ~policy ~domains ()
                          in
                          emit p;
                          p)
                        config.domain_counts)
                    config.dists)
                config.backoffs)
            config.memory_orders)
        config.policies)
    config.layouts

let point_to_json (p : point) =
  J.Obj
    [
      ("layout", J.String (layout_to_string p.layout));
      ("policy", J.String (Policy.to_string p.policy));
      ("memory_order", J.String (Order.to_string p.memory_order));
      ("backoff", J.Bool p.backoff);
      ("dist", J.String (dist_to_string p.dist));
      ("domains", J.Int p.domains);
      ("n", J.Int p.n);
      ("total_ops", J.Int p.total_ops);
      ("seconds", J.Float p.seconds);
      ("mops_per_sec", J.Float p.mops_per_sec);
      ( "failures",
        J.List
          (List.map
             (fun (k, msg) ->
               J.Obj [ ("domain", J.Int k); ("error", J.String msg) ])
             p.failures) );
    ]

let to_json ?(config = default_config) points =
  J.Obj
    [
      ("schema", J.String "dsu-scalability/v2");
      ("n", J.Int config.n);
      ("unite_percent", J.Int config.unite_percent);
      ("seed", J.Int config.seed);
      ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
      ("points", J.List (List.map point_to_json points));
    ]

let pp_table ppf points =
  let table =
    Table.create
      ~headers:
        [
          "layout"; "policy"; "order"; "backoff"; "dist"; "domains"; "Mops/s";
          "vs 1-dom"; "errs";
        ]
  in
  let key p = (p.layout, p.policy, p.memory_order, p.backoff, p.dist) in
  let base = Hashtbl.create 8 in
  List.iter
    (fun p -> if p.domains = 1 then Hashtbl.replace base (key p) p.mops_per_sec)
    points;
  List.iter
    (fun p ->
      let speedup =
        match Hashtbl.find_opt base (key p) with
        | Some b when b > 0. -> Table.cell_ratio (p.mops_per_sec /. b)
        | _ -> "-"
      in
      Table.add_row table
        [
          layout_to_string p.layout;
          Policy.to_string p.policy;
          Order.to_string p.memory_order;
          (if p.backoff then "on" else "off");
          dist_to_string p.dist;
          Table.cell_int p.domains;
          Table.cell_float p.mops_per_sec;
          speedup;
          (if p.failures = [] then "-" else Table.cell_int (List.length p.failures));
        ])
    points;
  Table.pp ppf table;
  List.iter
    (fun p ->
      List.iter
        (fun (k, msg) ->
          Format.fprintf ppf "@.worker failure: %s/%s/%s domain %d: %s"
            (layout_to_string p.layout) (Policy.to_string p.policy)
            (Order.to_string p.memory_order) k msg)
        p.failures)
    points
