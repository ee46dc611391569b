(* The benchmark's own arithmetic: percentile selection, the capacity rule
   of the open-loop workload, and the ratios it reports.  Pure functions
   over plain arrays, kept apart from the simulator so the unit tests in
   test_stats.ml can pin them down. *)

(* Percentiles are given in per-mille (500 = p50, 990 = p99, 999 = p99.9)
   so that rank arithmetic stays exact. *)

(* Nearest-rank: the 1-based rank of the [pm]-th per-mille of [n]
   samples, i.e. the smallest rank with at least [pm]/1000 of the samples
   at or below it. *)
let rank n pm =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if pm <= 0 || pm > 1000 then invalid_arg "Stats.rank: per-mille out of range";
  max 1 (((n * pm) + 999) / 1000)

(* Samples strictly beyond the [pm] percentile. *)
let beyond n pm = n - rank n pm

let percentile sorted pm = sorted.(rank (Array.length sorted) pm - 1)

(* A tail percentile is reported only when at least [min_beyond] samples
   lie beyond it; otherwise its value rests on fewer than that many
   observations and is noise. *)
let min_beyond = 10

let tail_percentile sorted pm =
  let n = Array.length sorted in
  if n > 0 && beyond n pm >= min_beyond then Some (percentile sorted pm)
  else None

(* Mean of the samples ranked between the [lo] and [hi] per-mille
   (inclusive).  The simulated cost model prices an op in whole steps (one
   NVM line read is ~300 ns), so a percentile jumps a full step when the
   share of ops at a step crosses its rank; the mean of a band around the
   rank moves with that share instead of jumping. *)
let band_mean sorted ~lo ~hi =
  let n = Array.length sorted in
  let a = rank n lo and b = rank n hi in
  let s = ref 0 in
  for i = a - 1 to b - 1 do
    s := !s + sorted.(i)
  done;
  float_of_int !s /. float_of_int (b - a + 1)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* ---- open-loop capacity ------------------------------------------------ *)

(* One fixed offered-rate step of the open-loop workload.  [lat] holds the
   latencies (from due time) of requests that completed successfully,
   sorted ascending; [failed] counts requests that were shed, timed out,
   errored or failed verification.  [backlog] samples (due − completed)
   at evenly spaced instants across the step's arrival window; [slack] is
   the backlog rise, in requests, still read as noise. *)
type step = {
  rate_kops : float;
  lat : int array;
  failed : int;
  backlog : int array;
  slack : int;
}

(* The backlog grows when the mean of the last third of the samples
   exceeds the mean of the first third by more than [slack] requests.
   Fewer than three samples cannot show a trend. *)
let backlog_grows ~slack samples =
  let n = Array.length samples in
  if n < 3 then false
  else begin
    let third = n / 3 in
    let mean lo hi =
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + samples.(i)
      done;
      float_of_int !s /. float_of_int (hi - lo)
    in
    mean (n - third) n -. mean 0 third > float_of_int slack
  end

(* p99 over every request of the step, failed ones counted as beyond any
   limit (they sort after every completed latency). *)
let step_p99 s =
  let n = Array.length s.lat + s.failed in
  if n = 0 then None
  else
    let r = rank n 990 in
    if r <= Array.length s.lat then Some s.lat.(r - 1) else None

let step_holds ~limit_ns s =
  (match step_p99 s with Some p -> p <= limit_ns | None -> false)
  && not (backlog_grows ~slack:s.slack s.backlog)

(* The highest step at which p99 stays within the limit and the backlog
   does not grow; 0 when no step holds. *)
let capacity ~limit_ns steps =
  List.fold_left
    (fun best s ->
      if step_holds ~limit_ns s then Float.max best s.rate_kops else best)
    0.0 steps

(* ---- ratios -------------------------------------------------------------- *)

(* Bytes the file system took out of KernFS per byte of live user data. *)
let space_amp ~page_size ~allocated_pages ~live_bytes =
  if live_bytes <= 0 then invalid_arg "Stats.space_amp: no live bytes";
  float_of_int (allocated_pages * page_size) /. float_of_int live_bytes

let fail_ratio ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Stats.fail_ratio: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Stats.fail_ratio: failed out of range";
  float_of_int failed /. float_of_int attempted

let per_op x ops = if ops <= 0 then 0.0 else x /. float_of_int ops

let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
