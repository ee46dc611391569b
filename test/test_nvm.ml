(* Tests for the simulated NVM device: accessors, persistence protocol,
   crash semantics, and cost accounting. *)

module D = Nvm.Device

let mk ?(size = 64 * Nvm.page_size) ?(perf = Nvm.Perf.free) () =
  D.create ~perf ~size ()

let test_scalar_roundtrip () =
  let d = mk () in
  D.write_u8 d 0 0xAB;
  D.write_u16 d 2 0xBEEF;
  D.write_u32 d 4 0xDEADBEEF;
  D.write_u64 d 8 0x1122334455667788;
  Alcotest.(check int) "u8" 0xAB (D.read_u8 d 0);
  Alcotest.(check int) "u16" 0xBEEF (D.read_u16 d 2);
  Alcotest.(check int) "u32" 0xDEADBEEF (D.read_u32 d 4);
  Alcotest.(check int) "u64" 0x1122334455667788 (D.read_u64 d 8)

let test_truncation () =
  let d = mk () in
  D.write_u8 d 0 0x1FF;
  Alcotest.(check int) "u8 truncated" 0xFF (D.read_u8 d 0);
  D.write_u16 d 2 0x12345;
  Alcotest.(check int) "u16 truncated" 0x2345 (D.read_u16 d 2)

let test_zero_initialized () =
  let d = mk () in
  Alcotest.(check int) "fresh page is zero" 0 (D.read_u64 d (17 * Nvm.page_size));
  Alcotest.(check string) "fresh string" (String.make 8 '\000')
    (D.read_string d 123 8)

let test_string_roundtrip () =
  let d = mk () in
  D.write_string d 100 "hello coffer";
  Alcotest.(check string) "string" "hello coffer" (D.read_string d 100 12)

let test_blit_crosses_pages () =
  let d = mk () in
  let s = String.init 10000 (fun i -> Char.chr (i mod 256)) in
  D.write_string d (Nvm.page_size - 100) s;
  Alcotest.(check string) "cross-page blit" s
    (D.read_string d (Nvm.page_size - 100) 10000)

let test_scalar_page_cross_rejected () =
  let d = mk () in
  Alcotest.check_raises "u64 across page boundary"
    (Invalid_argument "Nvm: scalar access crosses a page boundary") (fun () ->
      D.write_u64 d (Nvm.page_size - 4) 1)

let test_bounds () =
  let d = mk ~size:(2 * Nvm.page_size) () in
  Alcotest.check_raises "past end"
    (Invalid_argument "Nvm: access [8192, 8200) out of device [0, 8192)")
    (fun () -> ignore (D.read_u64 d (2 * Nvm.page_size)))

let test_fill_and_copy () =
  let d = mk () in
  D.fill d 50 20 'x';
  Alcotest.(check string) "fill" (String.make 20 'x') (D.read_string d 50 20);
  D.copy_within d ~src:50 ~dst:500 ~len:20;
  Alcotest.(check string) "copy" (String.make 20 'x') (D.read_string d 500 20)

(* --- persistence ------------------------------------------------------- *)

let test_unflushed_lost_on_crash () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "lost" 0 (D.read_u64 d 0)

let test_flushed_survives_crash () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.clwb d 0;
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "survived" 42 (D.read_u64 d 0)

let test_clwb_without_fence_not_durable () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.clwb d 0;
  (* no fence: write-back may not have completed *)
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "not durable before fence" 0 (D.read_u64 d 0)

let test_nt_write_durable_after_fence () =
  let d = mk () in
  D.nt_write_u64 d 0 99;
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "ntstore durable" 99 (D.read_u64 d 0)

let test_nt_blit_matches_nt_write () =
  (* A non-temporal blit of a slice costs, traces and persists exactly like
     [nt_write_string] of that slice copied out, across a page boundary. *)
  let src = String.init 500 (fun i -> Char.chr (i land 0xff)) in
  let soff = 7 and len = 300 and addr = Nvm.page_size - 100 in
  let run write =
    let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
    let events = ref [] in
    ignore (D.add_trace_subscriber d (fun e -> events := e :: !events));
    let t =
      Sim.run_thread (fun () ->
          write d;
          D.sfence d;
          Sim.now ())
    in
    D.crash ~policy:`Drop_all d;
    (t, List.rev !events, D.stat_writes d, D.read_string d addr len)
  in
  let t1, ev1, w1, data1 =
    run (fun d -> D.nt_write_string d addr (String.sub src soff len))
  in
  let t2, ev2, w2, data2 = run (fun d -> D.nt_blit_string d src soff addr len) in
  Alcotest.(check int) "same sim time" t1 t2;
  Alcotest.(check bool) "same trace events" true (ev1 = ev2);
  Alcotest.(check int) "same write count" w1 w2;
  Alcotest.(check string) "durable slice" (String.sub src soff len) data2;
  Alcotest.(check string) "same data" data1 data2

let test_persist_range () =
  let d = mk () in
  D.write_string d 1000 (String.make 300 'z');
  D.persist_range d 1000 300;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check string) "range persisted" (String.make 300 'z')
    (D.read_string d 1000 300)

let test_partial_line_granularity () =
  (* Flushing one line must not persist a different dirty line. *)
  let d = mk () in
  D.write_u64 d 0 1;
  D.write_u64 d 128 2;
  (* separate line *)
  D.persist_range d 0 8;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "flushed line" 1 (D.read_u64 d 0);
  Alcotest.(check int) "unflushed line" 0 (D.read_u64 d 128)

let test_keep_all_crash () =
  let d = mk () in
  D.write_u64 d 0 7;
  D.crash ~policy:`Keep_all d;
  Alcotest.(check int) "kept" 7 (D.read_u64 d 0)

let test_crash_resets_to_last_persisted () =
  let d = mk () in
  D.write_u64 d 0 1;
  D.persist_range d 0 8;
  D.write_u64 d 0 2;
  (* overwrite, not persisted *)
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "old value restored" 1 (D.read_u64 d 0)

let test_pending_lines_counter () =
  let d = mk () in
  Alcotest.(check int) "initially clean" 0 (D.pending_lines d);
  D.write_u64 d 0 1;
  D.write_u64 d 8 1;
  (* same line *)
  Alcotest.(check int) "one line" 1 (D.pending_lines d);
  D.write_u64 d 64 1;
  Alcotest.(check int) "two lines" 2 (D.pending_lines d);
  D.persist_all d;
  Alcotest.(check int) "clean after persist_all" 0 (D.pending_lines d)

let test_persist_all_durable () =
  let d = mk () in
  D.write_string d 0 "abcdef";
  D.persist_all d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check string) "persist_all" "abcdef" (D.read_string d 0 6)

let test_random_crash_policy_is_per_line () =
  (* With many independent lines pending, a `Random crash should keep some
     and drop some (probability of all-same is 2^-63). *)
  let d = mk () in
  for i = 0 to 63 do
    D.write_u64 d (i * Nvm.line_size) 1
  done;
  D.crash d;
  let kept = ref 0 in
  for i = 0 to 63 do
    if D.read_u64 d (i * Nvm.line_size) = 1 then incr kept
  done;
  Alcotest.(check bool) "some kept" true (!kept > 0);
  Alcotest.(check bool) "some dropped" true (!kept < 64)

(* --- snapshot / restore ------------------------------------------------- *)

let test_snapshot_restores_both_views () =
  let d = mk () in
  D.write_string d 0 "durable";
  D.persist_all d;
  D.write_string d 100 "volatile-only";
  let snap = D.snapshot d in
  (* Diverge: overwrite, persist new data, touch a fresh page. *)
  D.write_string d 0 "clobber";
  D.write_string d 100 "clobber-vol11";
  D.persist_all d;
  D.write_string d (10 * Nvm.page_size) "new page";
  D.restore d snap;
  Alcotest.(check string) "volatile view" "volatile-only" (D.read_string d 100 13);
  Alcotest.(check string)
    "fresh page gone" (String.make 8 '\000')
    (D.read_string d (10 * Nvm.page_size) 8);
  D.crash ~policy:`Drop_all d;
  Alcotest.(check string) "durable view" "durable" (D.read_string d 0 7);
  Alcotest.(check string)
    "unpersisted dropped" (String.make 13 '\000')
    (D.read_string d 100 13)

let test_snapshot_captures_pending_lines () =
  let d = mk () in
  D.write_u64 d 0 1;
  D.write_u64 d 64 2;
  D.clwb d 64 (* flushing but not fenced *);
  let snap = D.snapshot d in
  D.persist_all d;
  Alcotest.(check int) "drained" 0 (D.pending_lines d);
  D.restore d snap;
  Alcotest.(check int) "pending restored" 2 (D.pending_lines d);
  (* The restored flushing line becomes durable at the next fence; the
     dirty-but-unflushed line does not. *)
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "dirty line lost" 0 (D.read_u64 d 0);
  Alcotest.(check int) "flushing line persisted" 2 (D.read_u64 d 64)

let test_restore_is_reusable () =
  let d = mk () in
  D.write_u64 d 0 7;
  let snap = D.snapshot d in
  for round = 1 to 3 do
    D.restore d snap;
    Alcotest.(check int)
      (Printf.sprintf "round %d sees snapshot value" round)
      7 (D.read_u64 d 0);
    D.write_u64 d 0 (100 + round);
    D.persist_all d
  done;
  D.restore d snap;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "branch writes don't leak into snapshot" 0
    (D.read_u64 d 0)

let test_snapshot_captures_crash_rng () =
  let d = mk () in
  D.write_u64 d 0 1;
  let snap = D.snapshot d in
  let survival () =
    let kept = ref [] in
    for i = 0 to 63 do
      D.write_u64 d (i * Nvm.line_size) 1
    done;
    D.crash d;
    for i = 0 to 63 do
      if D.read_u64 d (i * Nvm.line_size) = 1 then kept := i :: !kept
    done;
    !kept
  in
  let first = survival () in
  D.restore d snap;
  let second = survival () in
  Alcotest.(check (list int)) "same RNG stream after restore" first second

let test_set_crash_seed_reproducible () =
  let d = mk () in
  let run seed =
    D.write_u64 d 0 1;
    D.persist_all d;
    let kept = ref [] in
    for i = 0 to 63 do
      D.write_u64 d (i * Nvm.line_size) 9
    done;
    D.set_crash_seed d seed;
    D.crash d;
    for i = 0 to 63 do
      if D.read_u64 d (i * Nvm.line_size) = 9 then kept := i :: !kept
    done;
    !kept
  in
  let a = run 1234L and b = run 1234L and c = run 99L in
  Alcotest.(check (list int)) "same seed, same pattern" a b;
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_inject_drop_fences () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.clwb d 0;
  D.inject_drop_fences d 1;
  D.sfence d (* dropped: a no-op *);
  Alcotest.(check int) "line still pending" 1 (D.pending_lines d);
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "nothing persisted" 0 (D.read_u64 d 0);
  (* Disarmed after the budget is spent: the next fence is real. *)
  D.write_u64 d 0 43;
  D.clwb d 0;
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "later fence works" 43 (D.read_u64 d 0)

(* --- cost model -------------------------------------------------------- *)

let test_read_latency_charged () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        ignore (D.read_u64 d 0);
        Sim.now ())
  in
  Alcotest.(check int) "miss costs read latency" 305 t

let test_cache_hit_cheap () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        ignore (D.read_u64 d 0);
        let t0 = Sim.now () in
        ignore (D.read_u64 d 8);
        (* same line: hit *)
        Sim.now () - t0)
  in
  Alcotest.(check int) "hit cost" 2 t

let test_pollute_cache () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        ignore (D.read_u64 d 0);
        (* pollution evicts a 1/8 window per call; 8 calls sweep the cache *)
        for _ = 1 to 8 do
          D.pollute_cache d
        done;
        let t0 = Sim.now () in
        ignore (D.read_u64 d 0);
        Sim.now () - t0)
  in
  Alcotest.(check int) "miss again after pollution" 305 t

let test_fence_cost () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        D.write_u64 d 0 1;
        let t0 = Sim.now () in
        D.clwb d 0;
        D.sfence d;
        Sim.now () - t0)
  in
  (* clwb instruction (4) + 64B writeback bandwidth (64/14 = 4ns) + fence
     (30) + write latency (94) *)
  Alcotest.(check int) "flush+fence cost" 132 t

let test_stats_counted () =
  let d = mk () in
  D.reset_stats d;
  ignore (D.read_u64 d 0);
  D.write_u64 d 0 1;
  D.clwb d 0;
  D.sfence d;
  Alcotest.(check int) "reads" 1 (D.stat_reads d);
  Alcotest.(check int) "writes" 1 (D.stat_writes d);
  Alcotest.(check int) "flushes" 1 (D.stat_flushes d);
  Alcotest.(check int) "fences" 1 (D.stat_fences d)

let test_protection_hook_called () =
  let d = mk () in
  let log = ref [] in
  D.set_protection_hook d (fun ~addr ~write -> log := (addr, write) :: !log);
  D.write_u64 d 8 1;
  ignore (D.read_u64 d 16);
  Alcotest.(check (list (pair int bool)))
    "hook calls"
    [ (16, false); (8, true) ]
    !log;
  D.clear_protection_hook d;
  D.write_u64 d 24 1;
  Alcotest.(check int) "no more calls" 2 (List.length !log)

let test_protection_hook_can_block () =
  let d = mk () in
  D.set_protection_hook d (fun ~addr ~write ->
      if write then raise (Nvm.Fault { addr; write; kind = Nvm.Protection; reason = "ro" }));
  ignore (D.read_u64 d 0);
  Alcotest.check_raises "write faults"
    (Nvm.Fault { addr = 0; write = true; kind = Nvm.Protection; reason = "ro" }) (fun () ->
      D.write_u64 d 0 1)

(* --- property tests ---------------------------------------------------- *)

let qcheck_persisted_data_survives =
  QCheck.Test.make ~name:"persisted writes always survive a crash" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (pair (int_range 0 1000)
           (string_gen_of_size (Gen.int_range 1 50) Gen.printable)))
    (fun writes ->
      let d = mk ~size:(64 * Nvm.page_size) () in
      (* Apply writes at non-overlapping offsets spaced 4 KB apart. *)
      let entries =
        List.mapi (fun i (off, s) -> ((i * 2048) + (off mod 1024), s)) writes
      in
      List.iter (fun (addr, s) -> D.write_string d addr s) entries;
      D.persist_all d;
      D.crash d;
      List.for_all
        (fun (addr, s) -> D.read_string d addr (String.length s) = s)
        entries)

let qcheck_unpersisted_never_leaks_past_drop_all =
  QCheck.Test.make ~name:"drop_all crash erases all unflushed writes" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 4000))
    (fun offs ->
      let d = mk ~size:(64 * Nvm.page_size) () in
      List.iter (fun off -> D.write_u8 d off 0xFF) offs;
      D.crash ~policy:`Drop_all d;
      List.for_all (fun off -> D.read_u8 d off = 0) offs)

let () =
  Alcotest.run "nvm"
    [
      ( "accessors",
        [
          Alcotest.test_case "scalar roundtrip" `Quick test_scalar_roundtrip;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "zero initialized" `Quick test_zero_initialized;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "blit across pages" `Quick test_blit_crosses_pages;
          Alcotest.test_case "scalar page-cross rejected" `Quick
            test_scalar_page_cross_rejected;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "fill and copy" `Quick test_fill_and_copy;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed lost" `Quick test_unflushed_lost_on_crash;
          Alcotest.test_case "flushed survives" `Quick test_flushed_survives_crash;
          Alcotest.test_case "clwb without fence" `Quick
            test_clwb_without_fence_not_durable;
          Alcotest.test_case "ntstore durable after fence" `Quick
            test_nt_write_durable_after_fence;
          Alcotest.test_case "nt blit = nt write of the slice" `Quick
            test_nt_blit_matches_nt_write;
          Alcotest.test_case "persist_range" `Quick test_persist_range;
          Alcotest.test_case "line granularity" `Quick test_partial_line_granularity;
          Alcotest.test_case "keep_all crash" `Quick test_keep_all_crash;
          Alcotest.test_case "reset to last persisted" `Quick
            test_crash_resets_to_last_persisted;
          Alcotest.test_case "pending lines counter" `Quick test_pending_lines_counter;
          Alcotest.test_case "persist_all durable" `Quick test_persist_all_durable;
          Alcotest.test_case "random crash is per-line" `Quick
            test_random_crash_policy_is_per_line;
          QCheck_alcotest.to_alcotest qcheck_persisted_data_survives;
          QCheck_alcotest.to_alcotest qcheck_unpersisted_never_leaks_past_drop_all;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restores both views" `Quick
            test_snapshot_restores_both_views;
          Alcotest.test_case "captures pending lines" `Quick
            test_snapshot_captures_pending_lines;
          Alcotest.test_case "restore is reusable" `Quick test_restore_is_reusable;
          Alcotest.test_case "captures crash rng" `Quick
            test_snapshot_captures_crash_rng;
          Alcotest.test_case "set_crash_seed reproducible" `Quick
            test_set_crash_seed_reproducible;
          Alcotest.test_case "inject_drop_fences" `Quick test_inject_drop_fences;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "read latency" `Quick test_read_latency_charged;
          Alcotest.test_case "cache hit" `Quick test_cache_hit_cheap;
          Alcotest.test_case "pollute cache" `Quick test_pollute_cache;
          Alcotest.test_case "flush+fence cost" `Quick test_fence_cost;
          Alcotest.test_case "stats" `Quick test_stats_counted;
        ] );
      ( "protection-hook",
        [
          Alcotest.test_case "hook called" `Quick test_protection_hook_called;
          Alcotest.test_case "hook can block" `Quick test_protection_hook_can_block;
        ] );
    ]
