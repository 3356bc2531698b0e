(** The wait-free union-find of Anderson and Woll (STOC 1991) — the only
    prior concurrent disjoint-set-union algorithm, and the baseline the
    paper compares against.

    Their algorithm links by rank, which needs a node's parent and rank to
    be compared and updated together atomically; they achieve this with one
    level of indirection.  Following their idea in its modern form, we pack
    [(rank, parent)] into a single word ([word = rank * n + parent]) so a
    single [Cas] updates both — functionally the same trick, with the same
    work behaviour (rank ties force extra [Cas] retries, and an unsuccessful
    linker must re-run its finds).  Compaction is their concurrent halving.

    The reconstruction is documented in DESIGN.md; no public implementation
    of AW91 exists.  The module is functorized over the same memory
    signature as the main algorithm, so its work is measured by the same
    APRAM simulator in experiment E8. *)

module Make (M : Dsu.Memory_intf.S) = struct
  type t = {
    mem : M.t;
    n : int;
    indirection : bool;
        (** model AW's published data structure, where reaching a node's
            (parent, rank) pair costs an extra pointer hop through the
            indirection record: every word access is charged one extra
            shared-memory read *)
    stats : Dsu.Stats.t option;
  }

  let create ?stats ?(indirection = false) ~mem ~n () =
    if n < 1 then invalid_arg "Anderson_woll.create: n must be >= 1";
    { mem; n; indirection; stats }

  (* One logical access to a node's packed (rank, parent) word; under
     [indirection] it costs two shared-memory reads, as in AW91. *)
  let read_word t u =
    if t.indirection then ignore (M.read t.mem u);
    M.read t.mem u

  (* Initial word for node [i]: rank 0, parent itself. *)
  let init_word _n i = i

  let bump t f = match t.stats with None -> () | Some s -> f s

  let parent_of_word t w = w mod t.n
  let rank_of_word t w = w / t.n
  let word t ~rank ~parent = (rank * t.n) + parent

  (* Find with concurrent halving: swing u's parent to its grandparent with
     a Cas that preserves u's packed rank, then jump to the grandparent. *)
  let find_root t x =
    bump t Dsu.Stats.incr_find;
    let rec loop u =
      bump t Dsu.Stats.incr_find_iter;
      let wu = read_word t u in
      let pu = parent_of_word t wu in
      if pu = u then u
      else begin
        let wp = read_word t pu in
        let pp = parent_of_word t wp in
        if pp = pu then pu
        else begin
          let ok = M.cas t.mem u wu (word t ~rank:(rank_of_word t wu) ~parent:pp) in
          bump t (Dsu.Stats.incr_compaction_cas ~ok);
          loop pp
        end
      end
    in
    loop x

  let check t x = if x < 0 || x >= t.n then invalid_arg "Anderson_woll: node out of range"

  let find t x =
    check t x;
    find_root t x

  let same_set t x y =
    check t x;
    check t y;
    bump t Dsu.Stats.incr_same_set;
    let rec loop u v ~first =
      if not first then bump t Dsu.Stats.incr_outer_retry;
      let u = find_root t u in
      let v = find_root t v in
      if u = v then true
      else if parent_of_word t (read_word t u) = u then false
      else loop u v ~first:false
    in
    loop x y ~first:true

  let unite t x y =
    check t x;
    check t y;
    bump t Dsu.Stats.incr_unite;
    let rec loop u v ~first =
      if not first then bump t Dsu.Stats.incr_outer_retry;
      let u = find_root t u in
      let v = find_root t v in
      if u = v then ()
      else begin
        let wu = read_word t u in
        let wv = read_word t v in
        let pu = parent_of_word t wu and ru = rank_of_word t wu in
        let pv = parent_of_word t wv and rv = rank_of_word t wv in
        if pu <> u || pv <> v then loop u v ~first:false
        else begin
          let link a wa ra b =
            let ok = M.cas t.mem a wa (word t ~rank:ra ~parent:b) in
            bump t (Dsu.Stats.incr_link_cas ~ok);
            ok
          in
          if ru < rv then begin
            if not (link u wu ru v) then loop u v ~first:false
          end
          else if rv < ru then begin
            if not (link v wv rv u) then loop u v ~first:false
          end
          else if u < v then begin
            (* Rank tie: the lower-indexed root goes below, and the winner's
               rank is promoted with a second Cas whose failure is benign
               (someone else already promoted it or linked it away). *)
            if link u wu ru v then
              ignore (M.cas t.mem v wv (word t ~rank:(rv + 1) ~parent:v))
            else loop u v ~first:false
          end
          else if link v wv rv u then
            ignore (M.cas t.mem u wu (word t ~rank:(ru + 1) ~parent:u))
          else loop u v ~first:false
        end
      end
    in
    loop x y ~first:true

  let count_sets t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if parent_of_word t (M.read t.mem i) = i then incr c
    done;
    !c

  let stats t =
    match t.stats with
    | None -> Dsu.Stats.zero
    | Some s -> Dsu.Stats.snapshot s
end

(** Native instantiation over [Atomic] arrays. *)
module Native = struct
  module A = Make (Dsu.Native_memory)

  type t = A.t

  let create ?memory_order ?(collect_stats = false) ?indirection n =
    let stats = if collect_stats then Some (Dsu.Stats.create ()) else None in
    let mem = Dsu.Native_memory.make ?order:memory_order n (A.init_word n) in
    A.create ?stats ?indirection ~mem ~n ()

  let find = A.find
  let same_set = A.same_set
  let unite = A.unite
  let count_sets = A.count_sets
  let stats = A.stats
end

(** Simulator instantiation; see {!Dsu.Dsu_sim} for the usage pattern. *)
module Sim = struct
  module A = Make (Dsu.Sim.Sim_memory)

  type t = A.t

  let mem_size n = n
  let init n i = A.init_word n i

  let handle ?indirection n =
    let stats = Dsu.Stats.create () in
    A.create ~stats ?indirection ~mem:() ~n ()

  let find = A.find
  let same_set = A.same_set
  let unite = A.unite
  let stats = A.stats

  let same_set_op t x y () =
    Apram.Process.record_invoke ~name:"same_set" ~args:[ x; y ];
    let r = A.same_set t x y in
    Apram.Process.record_return (if r then 1 else 0)

  let unite_op t x y () =
    Apram.Process.record_invoke ~name:"unite" ~args:[ x; y ];
    A.unite t x y;
    Apram.Process.record_return 0
end
