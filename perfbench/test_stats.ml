(* Unit tests for the benchmark's own arithmetic (stats.ml). *)

let ints = Alcotest.(check int)
let opt_int = Alcotest.(check (option int))
let flt = Alcotest.(check (float 1e-12))
let range n = Array.init n (fun i -> i + 1)

let test_rank () =
  ints "p50 of 1000" 500 (Stats.percentile (range 1000) 500);
  ints "p99 of 100" 99 (Stats.percentile (range 100) 990);
  ints "p99.9 of 10000" 9990 (Stats.percentile (range 10000) 999);
  ints "p50 of 1" 1 (Stats.percentile (range 1) 500);
  ints "p99 of 1001 rounds the rank up" 991 (Stats.percentile (range 1001) 990);
  ints "beyond p99.9 of 10000" 10 (Stats.beyond 10000 999)

let test_tail () =
  opt_int "ten samples beyond p99.9" (Some 9990)
    (Stats.tail_percentile (range 10000) 999);
  opt_int "nine samples beyond p99.9" None
    (Stats.tail_percentile (range 9999) 999);
  opt_int "p99 of 1000 has exactly ten beyond" (Some 990)
    (Stats.tail_percentile (range 1000) 990);
  opt_int "empty" None (Stats.tail_percentile [||] 990)

let test_band () =
  flt "band of 1..1000 around p50" 500.0
    (Stats.band_mean (range 1000) ~lo:450 ~hi:550);
  (* two latency steps: the median jumps, the band mean moves smoothly *)
  let mix lo_share =
    Array.init 1000 (fun i -> if i < lo_share then 1_000 else 2_000)
  in
  ints "p50 at 501 low" 1_000 (Stats.percentile (mix 501) 500);
  ints "p50 at 499 low" 2_000 (Stats.percentile (mix 499) 500);
  flt "band at 501 low" (1_000. +. (1_000. *. 49. /. 101.))
    (Stats.band_mean (mix 501) ~lo:450 ~hi:550);
  flt "band at 499 low" (1_000. +. (1_000. *. 51. /. 101.))
    (Stats.band_mean (mix 499) ~lo:450 ~hi:550)

let step ?(failed = 0) ?(backlog = [| 0; 0; 0 |]) rate lat =
  { Stats.rate_kops = rate; lat; failed; backlog; slack = 16 }

let test_backlog () =
  let b = Alcotest.(check bool) in
  b "flat" false (Stats.backlog_grows ~slack:16 [| 5; 5; 5; 5; 5; 5 |]);
  b "rising" true
    (Stats.backlog_grows ~slack:16 [| 0; 10; 20; 30; 40; 50; 60; 70; 80 |]);
  b "rise within slack" false
    (Stats.backlog_grows ~slack:16 [| 0; 2; 4; 6; 8; 10; 12; 14; 16 |]);
  b "burst that drains" false
    (Stats.backlog_grows ~slack:16 [| 4; 1; 130; 104; 108; 77; 60; 29; 1 |]);
  b "too few samples" false (Stats.backlog_grows ~slack:0 [| 0; 100 |])

let test_capacity () =
  let fast = Array.make 100 1_000 in
  let slow = Array.append (Array.make 98 1_000) [| 500_000; 600_000 |] in
  let limit_ns = 100_000 in
  flt "highest step that holds" 400.0
    (Stats.capacity ~limit_ns
       [ step 100.0 fast; step 200.0 fast; step 400.0 fast; step 800.0 slow ]);
  flt "a growing backlog disqualifies a fast step" 200.0
    (Stats.capacity ~limit_ns
       [
         step 100.0 fast;
         step 200.0 fast;
         step 400.0 fast ~backlog:[| 0; 50; 100; 150; 200; 250 |];
       ]);
  flt "failed requests count as over the limit" 100.0
    (Stats.capacity ~limit_ns [ step 100.0 fast; step 200.0 fast ~failed:2 ]);
  flt "a lower step may fail (cold start) without capping capacity" 400.0
    (Stats.capacity ~limit_ns [ step 25.0 slow; step 400.0 fast ]);
  flt "nothing holds" 0.0 (Stats.capacity ~limit_ns [ step 100.0 slow ]);
  opt_int "p99 with one failure in 100 still lands on a success" (Some 1_000)
    (Stats.step_p99 (step 1.0 (Array.make 99 1_000) ~failed:1))

let test_ratios () =
  flt "space_amp" 2.0
    (Stats.space_amp ~page_size:4096 ~allocated_pages:10 ~live_bytes:20480);
  flt "fail_ratio" 0.003 (Stats.fail_ratio ~failed:3 ~attempted:1000);
  flt "no failures" 0.0 (Stats.fail_ratio ~failed:0 ~attempted:7);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.fail_ratio: nothing attempted") (fun () ->
      ignore (Stats.fail_ratio ~failed:0 ~attempted:0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Stats.fail_ratio: failed out of range") (fun () ->
      ignore (Stats.fail_ratio ~failed:2 ~attempted:1));
  Alcotest.check_raises "no live bytes"
    (Invalid_argument "Stats.space_amp: no live bytes") (fun () ->
      ignore (Stats.space_amp ~page_size:4096 ~allocated_pages:1 ~live_bytes:0));
  flt "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  flt "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let () =
  Alcotest.run "perfbench-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_rank;
          Alcotest.test_case "tail percentile needs ten beyond" `Quick test_tail;
          Alcotest.test_case "percentile band mean" `Quick test_band;
          Alcotest.test_case "backlog growth rule" `Quick test_backlog;
          Alcotest.test_case "capacity step selection" `Quick test_capacity;
          Alcotest.test_case "space_amp and fail_ratio" `Quick test_ratios;
        ] );
    ]
