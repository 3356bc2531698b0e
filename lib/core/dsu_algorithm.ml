(** The concurrent disjoint-set-union algorithm of Jayanti and Tarjan,
    parameterized by the shared-memory implementation.

    The functor body transcribes the paper's pseudocode:

    - [find] is Algorithm 1 ([No_compaction]), Algorithm 4
      ([One_try_splitting]) or Algorithm 5 ([Two_try_splitting]);
    - [same_set] and [unite] are Algorithms 2 and 3, or — with
      [~early:true] — the early-termination Algorithms 6 and 7 that
      interleave the two finds and always step from the node with the
      smaller id.

    The linking rule is a value fixed at [create] ({!linking}):

    - [Random_ids prio] — the paper's randomized linking (Section 3): node
      ids are fixed uniformly at random at creation and [Unite] always
      links the root with the smaller id below the root with the larger
      id.  Ids are immutable, so processes read them from ordinary
      (non-shared-memory-step) storage, and every node's rank field stays
      0: each cell holds exactly its node's parent index.
    - [By_rank] — the Section 7 variant: the lower-ranked root is linked
      below the higher, ties broken by node index, and the winner of a tie
      is promoted by a separate best-effort CAS.  Needs no independence
      assumption.

    Either way a node's cell is one {!Word} — [(rank, parent)] — so
    every link and splitting step is one [Cas] on one word.  The rule is
    matched once per [Unite] round, never per hop: the find loops decode
    the word and are shared by both rules.

    One deliberate deviation from the printed pseudocode: Algorithms 6 and 7
    perform the splitting [Cas(u.parent, z, w)] even when [z = w]; a [Cas]
    that would store the value already present is unobservable, so we skip
    it.  This only lowers constant factors and is noted in EXPERIMENTS.md. *)

(* The node word; see the interface for the layout. *)
module Word = struct
  let parent_bits = 40
  let rank_bits = 21
  let max_nodes = 1 lsl parent_bits
  let max_rank = (1 lsl rank_bits) - 1
  let parent_mask = max_nodes - 1

  let[@inline] parent_of_word w = w land parent_mask
  let[@inline] rank_of_word w = w lsr parent_bits
  let[@inline] word ~rank ~parent = (rank lsl parent_bits) lor parent
  let[@inline] with_parent w parent = (w land lnot parent_mask) lor parent
end

open Word

type linking = Random_ids of (int -> int) | By_rank

module Make (M : Memory_intf.S) = struct
  module Backoff = Repro_util.Backoff

  type t = {
    mem : M.t;
    n : int;
    linking : linking;
        (** Under [Random_ids prio], [prio i] = node [i]'s position in the
            random total order.  Ties are broken by node index, so
            priorities need not be distinct (needed by the growable
            extension, where priorities are drawn on the fly from a large
            universe). *)
    policy : Find_policy.t;
    early : bool;
    backoff : bool;
        (** Bounded exponential backoff after a failed {e link} CAS in
            [unite].  A failed link means another domain just linked the
            same root, so an immediate retry mostly re-collides; splitting
            CAS failures never back off (they are not retried at all beyond
            the policy's second try). *)
    stats : Dsu_stats.t option;
    on_link : (child:int -> parent:int -> unit) option;
  }

  let create ?(policy = Find_policy.Two_try_splitting) ?(early = false)
      ?(backoff = true) ?stats ?on_link ~mem ~n ~linking () =
    if n < 1 || n > max_nodes then
      invalid_arg
        (Printf.sprintf
           "Dsu_algorithm.create: n must be in [1, 2^%d] (parent field is %d \
            bits)"
           parent_bits parent_bits);
    (match linking with
    | By_rank when early ->
      invalid_arg "Dsu_algorithm.create: early termination needs random ids"
    | Random_ids _ | By_rank -> ());
    { mem; n; linking; policy; early; backoff; stats; on_link }

  let n t = t.n
  let mem t = t.mem
  let linking t = t.linking
  let policy t = t.policy
  let early t = t.early
  let backoff t = t.backoff
  let stats t = t.stats

  (* The linking order: priority (or rank), then node index. *)
  let[@inline] less (prio : int -> int) u v =
    let pu = prio u and pv = prio v in
    pu < pv || (pu = pv && u < v)

  (* The random order the early-termination loops step by; [create]
     rejects [~early:true] under [By_rank]. *)
  let random_prio t =
    match t.linking with
    | Random_ids prio -> prio
    | By_rank -> invalid_arg "Dsu_algorithm: early termination needs random ids"

  let bump t f = match t.stats with None -> () | Some s -> f s

  (* The CAS counters take [~ok], so [bump t (incr_compaction_cas ~ok)]
     would build a partial application before [bump] tests [t.stats]:
     one allocation per CAS with stats off.  These test first. *)
  let bump_cas t ~ok =
    match t.stats with None -> () | Some s -> Dsu_stats.incr_compaction_cas s ~ok

  let bump_link t ~ok =
    match t.stats with None -> () | Some s -> Dsu_stats.incr_link_cas s ~ok

  let record_link t ~child ~parent =
    match t.on_link with None -> () | Some f -> f ~child ~parent

  (* Telemetry (lib/obs) and fault injection (lib/fault).  A per-hop armed
     test would cost a load, a call and a branch on every parent-pointer
     hop, which is measurable on the native fast path, so each find loop
     exists twice: the plain body below, byte-identical to the untraced
     algorithm, and an instrumented twin ([..._obs]) carrying both the
     telemetry hooks and the labeled fault-injection sites (see
     {!Repro_fault.Site}).  [find_root] picks a body with one atomic load
     each of [Dsu_obs.armed] and [Repro_fault.Inject.armed] per traversal,
     and the outer loops test them only at their (rare) retry/link/
     early-step sites — never via a captured binding or functor-level
     helper, either of which would be captured into every per-operation
     loop closure and grow each operation's allocation by a word; spelling
     out [Atomic.get Dsu_obs.armed] compiles to a global access instead.
     The hooks themselves are individually gated too (telemetry by the
     registry switch, fault sites by per-domain enrollment), so a stale
     pick is safe either way. *)

  module Fi = Repro_fault.Inject

  (* Shorthands for the compiled-in fault sites.  Each expands to an atomic
     load + branch when fault injection is disarmed; [Fi.hit] may raise
     [Repro_fault.Inject.Crashed] to model crash-stop mid-operation. *)
  let[@inline] fault_hop () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Find_hop

  let[@inline] fault_gap () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_read_gap

  let[@inline] fault_split_pre () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_cas_pre

  let[@inline] fault_split_post () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Split_cas_post

  let[@inline] fault_rank_read () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Rank_read

  let[@inline] fault_link_pre () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Link_cas_pre

  let[@inline] fault_link_post () =
    if Atomic.get Fi.armed then Fi.hit Repro_fault.Site.Link_cas_post

  (* Counts every outer round after the first as a retry. *)
  let[@inline] count_retry t ~first =
    if not first then begin
      bump t Dsu_stats.incr_outer_retry;
      if Atomic.get Dsu_obs.armed then Dsu_obs.on_outer_retry ()
    end

  (* Algorithm 1: Find without compaction.  Every loop reads whole words
     and decodes the parent field; a node is a root iff that field is the
     node itself. *)
  let find_no_compaction t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      let p = parent_of_word (M.read t.mem u) in
      if p = u then u else loop p
    in
    loop x

  let find_no_compaction_obs t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let p = parent_of_word (M.read t.mem u) in
      if p = u then u else loop p
    in
    loop x

  (* Algorithm 4: Find with one-try splitting.  The splitting update is a
     {e weak} CAS: Algorithm 4 already tolerates a failed try (it advances
     regardless), so a spurious failure is indistinguishable from losing a
     race and the semantics are unchanged.  It expects the whole word read
     and keeps its rank bits (a non-root's rank never changes).  Same in
     every splitting CAS below. *)
  let find_one_try t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      let wu = M.read t.mem u in
      let v = parent_of_word wu in
      let w = parent_of_word (M.read t.mem v) in
      if v = w then v
      else begin
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        loop v
      end
    in
    loop x

  let find_one_try_obs t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let wu = M.read t.mem u in
      let v = parent_of_word wu in
      fault_gap ();
      let w = parent_of_word (M.read t.mem v) in
      if v = w then v
      else begin
        fault_split_pre ();
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        Dsu_obs.on_compaction_cas ~node:u ~ok;
        fault_split_post ();
        loop v
      end
    in
    loop x

  (* Algorithm 5: Find with two-try splitting.  Each parent update is tried
     twice before the traversal advances; [u] advances to the second try's
     [v]. *)
  let find_two_try t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      let wu = M.read t.mem u in
      let v = parent_of_word wu in
      let w = parent_of_word (M.read t.mem v) in
      if v = w then v
      else begin
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        let wu2 = M.read t.mem u in
        let v2 = parent_of_word wu2 in
        let w2 = parent_of_word (M.read t.mem v2) in
        if v2 = w2 then v2
        else begin
          let ok2 = M.cas_weak t.mem u wu2 (with_parent wu2 w2) in
          bump_cas t ~ok:ok2;
          loop v2
        end
      end
    in
    loop x

  let find_two_try_obs t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let wu = M.read t.mem u in
      let v = parent_of_word wu in
      fault_gap ();
      let w = parent_of_word (M.read t.mem v) in
      if v = w then v
      else begin
        fault_split_pre ();
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        Dsu_obs.on_compaction_cas ~node:u ~ok;
        fault_split_post ();
        let wu2 = M.read t.mem u in
        let v2 = parent_of_word wu2 in
        fault_gap ();
        let w2 = parent_of_word (M.read t.mem v2) in
        if v2 = w2 then v2
        else begin
          fault_split_pre ();
          let ok2 = M.cas_weak t.mem u wu2 (with_parent wu2 w2) in
          bump_cas t ~ok:ok2;
          Dsu_obs.on_compaction_cas ~node:u ~ok:ok2;
          fault_split_post ();
          loop v2
        end
      end
    in
    loop x

  (* Concurrent path halving (van der Weide's rule): the same
     grandparent-swing CAS as one-try splitting, but the traversal advances
     two hops — to the grandparent — instead of one, so each pass visits
     half the path.  Every successful CAS replaces a parent by its current
     grandparent, an ancestor move, so Lemma 3.1's correctness argument is
     unchanged; like the splitting CASes it is weak (a spurious failure is
     just a skipped compaction). *)
  let find_halving t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      let wu = M.read t.mem u in
      let v = parent_of_word wu in
      if v = u then u
      else begin
        let w = parent_of_word (M.read t.mem v) in
        if v = w then v
        else begin
          let ok = M.cas_weak t.mem u wu (with_parent wu w) in
          bump_cas t ~ok;
          loop w
        end
      end
    in
    loop x

  let find_halving_obs t x =
    let rec loop u =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let wu = M.read t.mem u in
      let v = parent_of_word wu in
      if v = u then u
      else begin
        fault_gap ();
        let w = parent_of_word (M.read t.mem v) in
        if v = w then v
        else begin
          fault_split_pre ();
          let ok = M.cas_weak t.mem u wu (with_parent wu w) in
          bump_cas t ~ok;
          Dsu_obs.on_compaction_cas ~node:u ~ok;
          fault_split_post ();
          loop w
        end
      end
    in
    loop x

  (* Concurrent two-pass compression (Section 6 conjecture).  Pass one walks
     to the current root recording each (node, observed word) pair; pass
     two Cas-es each node's parent from the recorded word to the found
     root.  Because the root found in pass one is an ancestor (in the union
     forest) of every recorded parent, every successful Cas replaces a
     parent by a proper ancestor, exactly the invariant Lemma 3.1 needs; a
     Cas that fails because another process moved the parent first is
     simply skipped. *)
  let find_compression t x =
    let rec walk u acc =
      bump t Dsu_stats.incr_find_iter;
      let w = M.read t.mem u in
      let p = parent_of_word w in
      if p = u then (u, acc) else walk p ((u, w) :: acc)
    in
    let root, path = walk x [] in
    List.iter
      (fun (u, wu) ->
        if parent_of_word wu <> root then begin
          let ok = M.cas_weak t.mem u wu (with_parent wu root) in
          bump_cas t ~ok
        end)
      path;
    root

  let find_compression_obs t x =
    let rec walk u acc =
      bump t Dsu_stats.incr_find_iter;
      Dsu_obs.on_find_iter ();
      fault_hop ();
      let w = M.read t.mem u in
      let p = parent_of_word w in
      if p = u then (u, acc) else walk p ((u, w) :: acc)
    in
    let root, path = walk x [] in
    List.iter
      (fun (u, wu) ->
        if parent_of_word wu <> root then begin
          fault_split_pre ();
          let ok = M.cas_weak t.mem u wu (with_parent wu root) in
          bump_cas t ~ok;
          Dsu_obs.on_compaction_cas ~node:u ~ok;
          fault_split_post ()
        end)
      path;
    root

  let find_root t x =
    bump t Dsu_stats.incr_find;
    if Atomic.get Dsu_obs.armed || Atomic.get Fi.armed then begin
      Dsu_obs.find_begin x;
      let root =
        match t.policy with
        | Find_policy.No_compaction -> find_no_compaction_obs t x
        | Find_policy.One_try_splitting -> find_one_try_obs t x
        | Find_policy.Two_try_splitting -> find_two_try_obs t x
        | Find_policy.Halving -> find_halving_obs t x
        | Find_policy.Compression -> find_compression_obs t x
      in
      Dsu_obs.find_end x root;
      root
    end
    else
      match t.policy with
      | Find_policy.No_compaction -> find_no_compaction t x
      | Find_policy.One_try_splitting -> find_one_try t x
      | Find_policy.Two_try_splitting -> find_two_try t x
      | Find_policy.Halving -> find_halving t x
      | Find_policy.Compression -> find_compression t x

  let check_node t x =
    if x < 0 || x >= t.n then invalid_arg "Dsu: node out of range"

  let find t x =
    check_node t x;
    find_root t x

  (* One early-termination step from node [u] whose word [wu] the caller's
     root test just read (Algorithms 6 and 7, lines 7-11): advance [u] one
     hop along its find path, doing the splitting [Cas] once or twice
     according to the policy.  Reusing [wu] rather than re-reading it —
     the printed pseudocode reads it twice — only removes a redundant
     access (noted in EXPERIMENTS.md).  Returns the new [u]. *)
  let early_step t u wu =
    bump t Dsu_stats.incr_find_iter;
    let z = parent_of_word wu in
    match t.policy with
    | Find_policy.No_compaction | Find_policy.Compression ->
      (* Full compression needs a complete find path, which the interleaved
         early-termination walk never has; its steps are plain hops. *)
      z
    | Find_policy.One_try_splitting ->
      let w = parent_of_word (M.read t.mem z) in
      if z <> w then begin
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok
      end;
      z
    | Find_policy.Halving ->
      (* Same CAS as one-try, but advance to the grandparent — still an
         ancestor of [u], so the early-termination invariant holds. *)
      let w = parent_of_word (M.read t.mem z) in
      if z <> w then begin
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        w
      end
      else z
    | Find_policy.Two_try_splitting ->
      let w = parent_of_word (M.read t.mem z) in
      if z <> w then begin
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        let wu2 = M.read t.mem u in
        let z2 = parent_of_word wu2 in
        let w2 = parent_of_word (M.read t.mem z2) in
        if z2 <> w2 then begin
          let ok2 = M.cas_weak t.mem u wu2 (with_parent wu2 w2) in
          bump_cas t ~ok:ok2
        end;
        z2
      end
      else z

  let early_step_obs t u wu =
    bump t Dsu_stats.incr_find_iter;
    Dsu_obs.on_find_iter ();
    fault_hop ();
    let z = parent_of_word wu in
    match t.policy with
    | Find_policy.No_compaction | Find_policy.Compression -> z
    | Find_policy.One_try_splitting ->
      fault_gap ();
      let w = parent_of_word (M.read t.mem z) in
      if z <> w then begin
        fault_split_pre ();
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        Dsu_obs.on_compaction_cas ~node:u ~ok;
        fault_split_post ()
      end;
      z
    | Find_policy.Halving ->
      fault_gap ();
      let w = parent_of_word (M.read t.mem z) in
      if z <> w then begin
        fault_split_pre ();
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        Dsu_obs.on_compaction_cas ~node:u ~ok;
        fault_split_post ();
        w
      end
      else z
    | Find_policy.Two_try_splitting ->
      fault_gap ();
      let w = parent_of_word (M.read t.mem z) in
      if z <> w then begin
        fault_split_pre ();
        let ok = M.cas_weak t.mem u wu (with_parent wu w) in
        bump_cas t ~ok;
        Dsu_obs.on_compaction_cas ~node:u ~ok;
        fault_split_post ();
        let wu2 = M.read t.mem u in
        let z2 = parent_of_word wu2 in
        fault_gap ();
        let w2 = parent_of_word (M.read t.mem z2) in
        if z2 <> w2 then begin
          fault_split_pre ();
          let ok2 = M.cas_weak t.mem u wu2 (with_parent wu2 w2) in
          bump_cas t ~ok:ok2;
          Dsu_obs.on_compaction_cas ~node:u ~ok:ok2;
          fault_split_post ()
        end;
        z2
      end
      else z

  (* Algorithm 2: SameSet via two complete finds per round. *)
  let same_set_plain t x y =
    let rec loop u v ~first =
      count_retry t ~first;
      let u = find_root t u in
      let v = find_root t v in
      if u = v then true
      else if parent_of_word (M.read t.mem u) = u then false
      else loop u v ~first:false
    in
    loop x y ~first:true

  (* Algorithm 6: SameSet with early termination — always step from the
     smaller of the two current nodes; answer as soon as the smaller one is
     a root. *)
  let same_set_early t x y =
    let prio = random_prio t in
    let rec loop u v ~first =
      count_retry t ~first;
      if u = v then true
      else begin
        let u, v = if less prio v u then (v, u) else (u, v) in
        let wu = M.read t.mem u in
        if parent_of_word wu = u then false
        else begin
          let u =
            if Atomic.get Dsu_obs.armed || Atomic.get Fi.armed then
              early_step_obs t u wu
            else early_step t u wu
          in
          loop u v ~first:false
        end
      end
    in
    loop x y ~first:true

  (* The link CAS: swing root [child]'s word [expected] to point at
     [parent], keeping its rank.  It stays {e strong} (a reported failure
     must mean a real conflict) because a failure triggers the bounded
     exponential backoff: another domain just linked the same root, so an
     immediate retry mostly re-collides. *)
  let[@inline] link t child expected parent =
    fault_link_pre ();
    let ok = M.cas t.mem child expected (with_parent expected parent) in
    bump_link t ~ok;
    if Atomic.get Dsu_obs.armed then Dsu_obs.on_link_cas ~node:child ~ok;
    fault_link_post ();
    if ok then record_link t ~child ~parent;
    ok

  let[@inline] after_failed_link t spins =
    if t.backoff then Backoff.once spins else spins

  (* Algorithm 3: Unite via two complete finds per round, then one link
     CAS.  Returns a common ancestor of [x] and [y] once they are in one
     set (the link target on success, the shared root when already
     joined) — the bulk kernels cache it.  The spin count [spins] is
     threaded as an unboxed loop argument.

     - [Random_ids]: link the root with the smaller id below the other.
       A root's word is its own index (rank 0), which the CAS expects.
     - [By_rank]: read both root words, re-check that each is still a
       root, and link the lower (rank, index) below the higher with a CAS
       that expects the whole word, so a stale rank read only costs a
       retry.  On a rank tie the winner's promotion is a separate
       best-effort CAS (losing it means someone else promoted or linked
       the winner first, both fine). *)
  let unite_rounds t x y =
    let rec loop u v spins ~first =
      count_retry t ~first;
      let u = find_root t u in
      let v = find_root t v in
      if u = v then u
      else
        match t.linking with
        | Random_ids prio ->
          let child = if less prio u v then u else v in
          let parent = if child = u then v else u in
          if link t child child parent then parent
          else loop u v (after_failed_link t spins) ~first:false
        | By_rank ->
          let wu = M.read t.mem u in
          let wv = M.read t.mem v in
          fault_rank_read ();
          if parent_of_word wu <> u || parent_of_word wv <> v then
            loop u v spins ~first:false
          else begin
            let ru = rank_of_word wu and rv = rank_of_word wv in
            let u_below = ru < rv || (ru = rv && u < v) in
            let child = if u_below then u else v in
            let parent = if u_below then v else u in
            if link t child (if u_below then wu else wv) parent then begin
              if ru = rv then begin
                let wp = if u_below then wv else wu in
                ignore
                  (M.cas t.mem parent wp (word ~rank:(rv + 1) ~parent))
              end;
              parent
            end
            else loop u v (after_failed_link t spins) ~first:false
          end
    in
    loop x y Backoff.initial ~first:true

  (* Algorithm 7: Unite with early termination.  The printed pseudocode uses
     an unconditional linking Cas as the root test; attempting the Cas only
     after a read observes [u] to be a root costs the same step when [u] is
     a root and saves a wasted Cas when it is not (the Cas still re-verifies
     rootness atomically, so correctness is unchanged). *)
  let unite_early t x y =
    let prio = random_prio t in
    let rec loop u v spins ~first =
      count_retry t ~first;
      if u = v then ()
      else begin
        let u, v = if less prio v u then (v, u) else (u, v) in
        let wu = M.read t.mem u in
        if parent_of_word wu = u then begin
          if not (link t u wu v) then
            (* Only a failed link CAS backs off; early steps are progress. *)
            loop u v (after_failed_link t spins) ~first:false
        end
        else begin
          let u =
            if Atomic.get Dsu_obs.armed || Atomic.get Fi.armed then
              early_step_obs t u wu
            else early_step t u wu
          in
          loop u v spins ~first:false
        end
      end
    in
    loop x y Backoff.initial ~first:true

  let same_set t x y =
    check_node t x;
    check_node t y;
    bump t Dsu_stats.incr_same_set;
    if t.early then same_set_early t x y else same_set_plain t x y

  let unite t x y =
    check_node t x;
    check_node t y;
    bump t Dsu_stats.incr_unite;
    if t.early then unite_early t x y else ignore (unite_rounds t x y)

  (* ------------------------------------------------------ bulk kernels *)

  (* ConnectIt-style batched processing: one call unites (or queries) a
     whole array of endpoint pairs.  Two per-call optimizations:

     - {b root cache}: a direct-mapped table mapping a recently seen node
       to a recently observed {e ancestor} of it.  Soundness: parents only
       ever move to proper ancestors (Lemma 3.1; under rank linking too —
       splitting, halving and compression swing to grandparents or the
       observed root, links point a root at another root), so once [a] is
       an ancestor of [x] it stays one forever — [find_root] from the
       cached ancestor lands on exactly the current root of [x]'s tree,
       and a unite from the cached ancestors unites [x]'s and [y]'s sets.
       The cache lives on the calling domain's stack (allocated per call),
       so it is per-domain by construction and never contended.
     - {b prefetching}: the parent cells of the pair [prefetch_dist]
       slots ahead are prefetched before the current pair is processed.
       Prefetch is a pure hint, so issuing it before the ahead-pair is
       bounds-checked is safe ({!Memory_intf.S.prefetch} never faults).

     The kernels use the plain (non-early) rounds regardless of [t.early]:
     batched callers want the roots settled for the cache.  Fault sites
     and telemetry fire exactly as in [unite] — the link CAS is wrapped in
     [fault_link_pre/post] — so chaos coverage extends to the bulk path. *)

  let cache_bits = 8
  let cache_size = 1 lsl cache_bits
  let cache_mask = cache_size - 1
  let prefetch_dist = 8

  let check_batch t op xs ys =
    let len = Array.length xs in
    if Array.length ys <> len then
      invalid_arg (Printf.sprintf "Dsu.%s: endpoint arrays differ in length" op);
    for k = 0 to len - 1 do
      check_node t (Array.unsafe_get xs k);
      check_node t (Array.unsafe_get ys k)
    done;
    len

  let[@inline] cache_hint keys anc x =
    let slot = x land cache_mask in
    if Array.unsafe_get keys slot = x then Array.unsafe_get anc slot else x

  let[@inline] cache_store keys anc x a =
    let slot = x land cache_mask in
    Array.unsafe_set keys slot x;
    Array.unsafe_set anc slot a

  let unite_batch t xs ys =
    let len = check_batch t "unite_batch" xs ys in
    let keys = Array.make cache_size (-1) and anc = Array.make cache_size 0 in
    for k = 0 to len - 1 do
      if k + prefetch_dist < len then begin
        M.prefetch t.mem (Array.unsafe_get xs (k + prefetch_dist));
        M.prefetch t.mem (Array.unsafe_get ys (k + prefetch_dist))
      end;
      let x = Array.unsafe_get xs k and y = Array.unsafe_get ys k in
      bump t Dsu_stats.incr_unite;
      let a = unite_rounds t (cache_hint keys anc x) (cache_hint keys anc y) in
      cache_store keys anc x a;
      cache_store keys anc y a
    done

  let same_set_batch t xs ys =
    let len = check_batch t "same_set_batch" xs ys in
    let keys = Array.make cache_size (-1) and anc = Array.make cache_size 0 in
    let out = Array.make len false in
    for k = 0 to len - 1 do
      if k + prefetch_dist < len then begin
        M.prefetch t.mem (Array.unsafe_get xs (k + prefetch_dist));
        M.prefetch t.mem (Array.unsafe_get ys (k + prefetch_dist))
      end;
      let x = Array.unsafe_get xs k and y = Array.unsafe_get ys k in
      bump t Dsu_stats.incr_same_set;
      (* Algorithm 2's rounds, started from the cached ancestors. *)
      let rec loop u v ~first =
        count_retry t ~first;
        let u = find_root t u in
        let v = find_root t v in
        if u = v then begin
          cache_store keys anc x u;
          cache_store keys anc y u;
          true
        end
        else if parent_of_word (M.read t.mem u) = u then begin
          (* [u]/[v] are (ancestors of) the two distinct roots observed;
             both remain ancestors of their endpoints forever. *)
          cache_store keys anc x u;
          cache_store keys anc y v;
          false
        end
        else loop u v ~first:false
      in
      Array.unsafe_set out k
        (loop (cache_hint keys anc x) (cache_hint keys anc y) ~first:true)
    done;
    out

  let find_batch t xs =
    let len = Array.length xs in
    for k = 0 to len - 1 do
      check_node t (Array.unsafe_get xs k)
    done;
    let keys = Array.make cache_size (-1) and anc = Array.make cache_size 0 in
    let out = Array.make len 0 in
    for k = 0 to len - 1 do
      if k + prefetch_dist < len then
        M.prefetch t.mem (Array.unsafe_get xs (k + prefetch_dist));
      let x = Array.unsafe_get xs k in
      (* [find_root] bumps [incr_find] itself, as in [find]. *)
      let r = find_root t (cache_hint keys anc x) in
      cache_store keys anc x r;
      Array.unsafe_set out k r
    done;
    out

  (* Quiescent inspection helpers.  These read through [M], so under the
     simulator they consume steps; call them only outside measured phases. *)

  let parent_of t x =
    check_node t x;
    parent_of_word (M.read t.mem x)

  let is_root t x = parent_of t x = x

  (* A node's key in the linking order: its random priority, or its
     current rank. *)
  let key t i =
    match t.linking with
    | Random_ids prio -> prio i
    | By_rank -> rank_of_word (M.read t.mem i)

  let id t x =
    check_node t x;
    key t x

  let count_sets t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if parent_of_word (M.read t.mem i) = i then incr c
    done;
    !c

  (* The order-monotonicity invariant of Lemma 3.1 (and its by-rank
     analogue): every non-root points to a node with a strictly larger
     key, ties broken by node index. *)
  let invariant_violations t =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      let p = parent_of_word (M.read t.mem i) in
      if p <> i && not (less (key t) i p) then acc := (i, p) :: !acc
    done;
    !acc
end
