type restored = Native of Dsu.Native.t | Growable of Dsu.Growable.t

let restore ?policy ?early ?(collect_stats = false) ?(padded = false) ?on_link
    (s : Snapshot.t) =
  match s.kind with
  | Snapshot.Flat ->
    Native
      (Dsu.Native.of_snapshot ?policy ?early ~collect_stats ~padded ?on_link
         ~parents:s.parents ~ids:s.prios ())
  | Snapshot.Growable ->
    Growable
      (Dsu.Growable.of_snapshot ?policy ?early ~collect_stats ?on_link
         ~capacity:s.capacity ~parents:s.parents ~prios:s.prios ())
  | Snapshot.Packed ->
    Native
      (Dsu.Packed.Native.of_snapshot ?policy ~collect_stats ~padded ?on_link
         ~parents:s.parents ~ranks:s.prios ())

let create ?policy ?backoff ?memory_order ?(padded = false) ?on_link ~seed
    (kind : Snapshot.kind) n =
  match kind with
  | Snapshot.Flat ->
    Native
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
    Native
      (Dsu.Packed.Native.create ?policy ?backoff ?memory_order ~padded ?on_link
         n)

let restore_result ?policy ?early ?collect_stats ?padded ?on_link s =
  match restore ?policy ?early ?collect_stats ?padded ?on_link s with
  | r -> Ok r
  | exception Invalid_argument msg -> Error msg

let snapshot = function
  | Native d -> Snapshot.of_native d
  | Growable d -> Snapshot.of_growable d

let snapshot_fuzzy = function
  | Native d -> Dsu.Native.snapshot_fuzzy d
  | Growable d -> Dsu.Growable.snapshot_fuzzy d

let n = function
  | Native d -> Dsu.Native.n d
  | Growable d -> Dsu.Growable.cardinal d

let unite t x y =
  match t with
  | Native d -> Dsu.Native.unite d x y
  | Growable d -> Dsu.Growable.unite d x y

let same_set t x y =
  match t with
  | Native d -> Dsu.Native.same_set d x y
  | Growable d -> Dsu.Growable.same_set d x y

let find t x =
  match t with
  | Native d -> Dsu.Native.find d x
  | Growable d -> Dsu.Growable.find d x

let count_sets = function
  | Native d -> Dsu.Native.count_sets d
  | Growable d -> Dsu.Growable.count_sets d

let kind = function
  | Native d -> Snapshot.native_kind d
  | Growable _ -> Snapshot.Growable
