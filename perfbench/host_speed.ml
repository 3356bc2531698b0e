(* The host's speed, read off a fixed reference kernel that belongs to the
   benchmark, not to the program.  The reference host's speed swings by a
   quarter within seconds and in phases of minutes (co-tenants sharing its
   caches), and a CPU-bound pass slows with it.  The kernel does the same
   kind of work as the connectivity pass -- power-law draws written to
   chunk buffers, then union-find over them in an 8 MB parent array -- and
   slows with it: over 151 alternating rounds of a pass and a 16-chunk
   version of the kernel their times correlated at 0.75-0.80.  Each CPU-bound time the benchmark gates on
   is timed between two kernel runs and scaled to the reference speed:

     scaled = wall * reference_ns / kernel_ns

   where kernel_ns is the mean of the runs before and after.  No program
   code runs inside the kernel, so a change to the program moves the wall
   time and not the kernel. *)

let n = 1 lsl 20
let chunk = 65_536
let chunks = 32

(* Median of the kernel on the reference host (2 vCPUs, Intel Xeon at
   2.1 GHz, L2 2 MiB/core, L3 300 MiB): 129 ms over 370 passes' kernel
   pairs.  It only sets the scale: scaled times read as wall times on that
   host at its median speed. *)
let reference_ns = 130e6

let parent = Array.make n 0
let src = Array.make chunk 0
let dst = Array.make chunk 0

(* Root of [i] with path halving. *)
let rec root i =
  let p = Array.unsafe_get parent i in
  if p = i then i
  else begin
    let g = Array.unsafe_get parent p in
    Array.unsafe_set parent i g;
    if g = p then p else root g
  end

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

(* [chunks] chunks of edges, each with a power-law source (exponent 2, by
   inverse CDF) and a uniform destination from an xorshift generator,
   joined chunk by chunk into one forest that starts fresh at each call.
   The same work every call; allocates nothing. *)
let kernel () =
  for i = 0 to n - 1 do
    Array.unsafe_set parent i i
  done;
  let x = ref 0x2545F4914F6CDD1D in
  let top = (1. /. float_of_int (n + 1)) -. 1. in
  for _ = 1 to chunks do
    for k = 0 to chunk - 1 do
      x := xorshift !x;
      let u = float_of_int (!x land 0xFFFF_FFFF_FFFF) /. 0x1p48 in
      let s = int_of_float (Float.pow (1. +. (u *. top)) (-1.)) - 1 in
      Array.unsafe_set src k (if s < 0 || s >= n then 0 else s);
      x := xorshift !x;
      Array.unsafe_set dst k ((!x lsr 3) land (n - 1))
    done;
    for k = 0 to chunk - 1 do
      let a = root (Array.unsafe_get src k) and b = root (Array.unsafe_get dst k) in
      if a < b then Array.unsafe_set parent a b
      else if b < a then Array.unsafe_set parent b a
    done
  done

let time_kernel () =
  let t = Bench.now () in
  kernel ();
  Bench.now () - t

(* Every kernel time of the run, and the last one: consecutive measured
   calls share the kernel run between them. *)
let kernel_ns = ref []
let last = ref None

let measure_kernel () =
  let k = time_kernel () in
  kernel_ns := float_of_int k :: !kernel_ns;
  last := Some k;
  k

(* Run [f] between two kernel runs.  Returns its result, its wall time
   and that time scaled to the reference speed, in ns. *)
let scaled f =
  let before = match !last with Some k -> k | None -> measure_kernel () in
  let t = Bench.now () in
  let x = f () in
  let wall = Bench.now () - t in
  let after = measure_kernel () in
  let kernel = float_of_int (before + after) /. 2. in
  (x, wall, float_of_int wall *. reference_ns /. kernel)

(* Reference / measured kernel time over the run so far: 1 at the
   reference host's median speed, below 1 when slower. *)
let speed () = reference_ns /. Bench.median !kernel_ns
