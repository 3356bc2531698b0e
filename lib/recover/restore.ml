type restored =
  | Flat of Dsu.Native.t
  | Growable of Dsu.Growable.t
  | Packed of Dsu.Packed.Native.t

let restore ?policy ?early ?(collect_stats = false) ?(padded = false) ?on_link
    (s : Snapshot.t) =
  match s.kind with
  | Snapshot.Flat ->
    Flat
      (Dsu.Native.of_snapshot ?policy ?early ~collect_stats ~padded ?on_link
         ~parents:s.parents ~ids:s.prios ())
  | Snapshot.Growable ->
    Growable
      (Dsu.Growable.of_snapshot ?policy ?early ~collect_stats ?on_link
         ~capacity:s.capacity ~parents:s.parents ~prios:s.prios ())
  | Snapshot.Packed ->
    Packed
      (Dsu.Packed.Native.of_snapshot ?policy ~collect_stats ~padded ?on_link
         ~parents:s.parents ~ranks:s.prios ())

let create ?policy ?backoff ?memory_order ?(padded = false) ?on_link ~seed
    (kind : Snapshot.kind) n =
  match kind with
  | Snapshot.Flat ->
    Flat
      (Dsu.Native.create ?policy ?backoff ?memory_order ?on_link ~seed ~padded
         n)
  | Snapshot.Growable ->
    let d =
      Dsu.Growable.create ?policy ?backoff ?memory_order ?on_link ~seed
        ~capacity:n ()
    in
    for _ = 1 to n do
      ignore (Dsu.Growable.make_set d : int)
    done;
    Growable d
  | Snapshot.Packed ->
    Packed
      (Dsu.Packed.Native.create ?policy ?backoff ?memory_order ~padded ?on_link
         n)

let restore_result ?policy ?early ?collect_stats ?padded ?on_link s =
  match restore ?policy ?early ?collect_stats ?padded ?on_link s with
  | r -> Ok r
  | exception Invalid_argument msg -> Error msg

let snapshot = function
  | Flat d -> Snapshot.of_native d
  | Growable d -> Snapshot.of_growable d
  | Packed d -> Snapshot.of_packed d

let snapshot_fuzzy = function
  | Flat d -> Dsu.Native.snapshot_fuzzy d
  | Growable d -> Dsu.Growable.snapshot_fuzzy d
  | Packed d -> Dsu.Packed.Native.snapshot_fuzzy d

let n = function
  | Flat d -> Dsu.Native.n d
  | Growable d -> Dsu.Growable.cardinal d
  | Packed d -> Dsu.Packed.Native.n d

let unite t x y =
  match t with
  | Flat d -> Dsu.Native.unite d x y
  | Growable d -> Dsu.Growable.unite d x y
  | Packed d -> Dsu.Packed.Native.unite d x y

let same_set t x y =
  match t with
  | Flat d -> Dsu.Native.same_set d x y
  | Growable d -> Dsu.Growable.same_set d x y
  | Packed d -> Dsu.Packed.Native.same_set d x y

let find t x =
  match t with
  | Flat d -> Dsu.Native.find d x
  | Growable d -> Dsu.Growable.find d x
  | Packed d -> Dsu.Packed.Native.find d x

let count_sets = function
  | Flat d -> Dsu.Native.count_sets d
  | Growable d -> Dsu.Growable.count_sets d
  | Packed d -> Dsu.Packed.Native.count_sets d

let kind = function
  | Flat _ -> Snapshot.Flat
  | Growable _ -> Snapshot.Growable
  | Packed _ -> Snapshot.Packed
