(* Tests for the LSM key-value store (the LevelDB substrate of Table 7). *)

open Testkit
module V = Treasury.Vfs

let okd = function
  | Ok v -> v
  | Error e -> Alcotest.failf "kvdb error: %s" (Treasury.Errno.to_string e)

let with_db f =
  let w = make_world ~pages:32768 () in
  in_proc ~uid:0 w (fun fs ->
      let db = okd (Kvdb.Db.open_ fs "/db") in
      f fs db)

let test_put_get () =
  with_db (fun _ db ->
      okd (Kvdb.Db.put db ~key:"alpha" ~value:"1");
      okd (Kvdb.Db.put db ~key:"beta" ~value:"2");
      Alcotest.(check (option string)) "alpha" (Some "1") (Kvdb.Db.get db ~key:"alpha");
      Alcotest.(check (option string)) "beta" (Some "2") (Kvdb.Db.get db ~key:"beta");
      Alcotest.(check (option string)) "missing" None (Kvdb.Db.get db ~key:"gamma"))

let test_overwrite () =
  with_db (fun _ db ->
      okd (Kvdb.Db.put db ~key:"k" ~value:"old");
      okd (Kvdb.Db.put db ~key:"k" ~value:"new");
      Alcotest.(check (option string)) "latest wins" (Some "new")
        (Kvdb.Db.get db ~key:"k"))

let test_delete () =
  with_db (fun _ db ->
      okd (Kvdb.Db.put db ~key:"k" ~value:"v");
      okd (Kvdb.Db.delete db ~key:"k");
      Alcotest.(check (option string)) "deleted" None (Kvdb.Db.get db ~key:"k"))

let test_reopen_recovers_from_wal () =
  let w = make_world ~pages:32768 () in
  in_proc ~uid:0 w (fun fs ->
      let db = okd (Kvdb.Db.open_ fs "/db") in
      okd (Kvdb.Db.put db ~key:"persist" ~value:"me");
      okd (Kvdb.Db.put db ~key:"and" ~value:"me too")
      (* no close: simulate a crash before any flush *));
  in_proc ~uid:0 w (fun fs ->
      let db = okd (Kvdb.Db.open_ fs "/db") in
      Alcotest.(check (option string)) "replayed 1" (Some "me")
        (Kvdb.Db.get db ~key:"persist");
      Alcotest.(check (option string)) "replayed 2" (Some "me too")
        (Kvdb.Db.get db ~key:"and"))

let test_reopen_after_close () =
  let w = make_world ~pages:32768 () in
  in_proc ~uid:0 w (fun fs ->
      let db = okd (Kvdb.Db.open_ fs "/db") in
      for i = 0 to 99 do
        okd (Kvdb.Db.put db ~key:(Kvdb.Db_bench.key_of i) ~value:(string_of_int i))
      done;
      okd (Kvdb.Db.close db));
  in_proc ~uid:0 w (fun fs ->
      let db = okd (Kvdb.Db.open_ fs "/db") in
      for i = 0 to 99 do
        Alcotest.(check (option string))
          (Printf.sprintf "key %d" i)
          (Some (string_of_int i))
          (Kvdb.Db.get db ~key:(Kvdb.Db_bench.key_of i))
      done)

let test_flush_and_read_from_sstable () =
  with_db (fun _ db ->
      (* large values force a memtable flush (budget 256 KB) *)
      let big = String.make 4096 'v' in
      for i = 0 to 99 do
        okd (Kvdb.Db.put db ~key:(Kvdb.Db_bench.key_of i) ~value:big)
      done;
      let l0, _ = Kvdb.Db.level_sizes db in
      Alcotest.(check bool) "flushed to L0" true (l0 >= 1);
      (* reads hit the tables, not just the memtable *)
      Alcotest.(check (option string)) "first" (Some big)
        (Kvdb.Db.get db ~key:(Kvdb.Db_bench.key_of 0));
      Alcotest.(check (option string)) "last" (Some big)
        (Kvdb.Db.get db ~key:(Kvdb.Db_bench.key_of 99)))

let test_compaction_preserves_data () =
  with_db (fun _ db ->
      let big = String.make 2048 'c' in
      for i = 0 to 699 do
        okd (Kvdb.Db.put db ~key:(Kvdb.Db_bench.key_of i) ~value:big)
      done;
      Alcotest.(check bool) "compacted at least once" true
        (Kvdb.Db.compaction_count db >= 1);
      let l0, l1 = Kvdb.Db.level_sizes db in
      Alcotest.(check bool) "l1 populated" true (l1 >= 1);
      ignore l0;
      (* spot check *)
      for i = 0 to 699 do
        if i mod 53 = 0 then
          Alcotest.(check (option string))
            (Printf.sprintf "after compaction %d" i)
            (Some big)
            (Kvdb.Db.get db ~key:(Kvdb.Db_bench.key_of i))
      done)

let test_tombstones_survive_flush () =
  with_db (fun _ db ->
      let big = String.make 4096 'x' in
      for i = 0 to 79 do
        okd (Kvdb.Db.put db ~key:(Kvdb.Db_bench.key_of i) ~value:big)
      done;
      okd (Kvdb.Db.delete db ~key:(Kvdb.Db_bench.key_of 5));
      (* force another flush so the tombstone lands in a newer L0 table *)
      for i = 100 to 179 do
        okd (Kvdb.Db.put db ~key:(Kvdb.Db_bench.key_of i) ~value:big)
      done;
      Alcotest.(check (option string)) "tombstone wins" None
        (Kvdb.Db.get db ~key:(Kvdb.Db_bench.key_of 5));
      Alcotest.(check (option string)) "neighbour intact" (Some big)
        (Kvdb.Db.get db ~key:(Kvdb.Db_bench.key_of 6)))

let test_fold_all_ordered () =
  with_db (fun _ db ->
      List.iter
        (fun k -> okd (Kvdb.Db.put db ~key:k ~value:k))
        [ "delta"; "alpha"; "charlie"; "bravo" ];
      okd (Kvdb.Db.delete db ~key:"charlie");
      let keys = List.rev (Kvdb.Db.fold_all db (fun acc k _ -> k :: acc) []) in
      Alcotest.(check (list string)) "sorted, tombstone hidden"
        [ "alpha"; "bravo"; "delta" ]
        keys)

let test_sstable_roundtrip () =
  let w = make_world ~pages:16384 () in
  in_proc ~uid:0 w (fun fs ->
      let entries =
        List.init 100 (fun i ->
            {
              Kvdb.Sstable.key = Kvdb.Db_bench.key_of i;
              value = (if i mod 10 = 3 then None else Some (Printf.sprintf "v%d" i));
            })
      in
      okd (Kvdb.Sstable.write fs "/t.sst" entries);
      let tbl = okd (Kvdb.Sstable.open_ fs "/t.sst") in
      Alcotest.(check int) "count" 100 (Kvdb.Sstable.count tbl);
      Alcotest.(check (option (option string))) "hit" (Some (Some "v42"))
        (Kvdb.Sstable.get tbl (Kvdb.Db_bench.key_of 42));
      Alcotest.(check (option (option string))) "tombstone" (Some None)
        (Kvdb.Sstable.get tbl (Kvdb.Db_bench.key_of 13));
      Alcotest.(check (option (option string))) "miss" None
        (Kvdb.Sstable.get tbl "zzz-not-there");
      let lo, hi = Kvdb.Sstable.key_range tbl in
      Alcotest.(check string) "smallest" (Kvdb.Db_bench.key_of 0) lo;
      Alcotest.(check string) "largest" (Kvdb.Db_bench.key_of 99) hi;
      Alcotest.(check int) "iter count" 100
        (List.length (Kvdb.Sstable.entries tbl)))

let test_sstable_get_key_order () =
  (* [get] compares keys in place; it must agree with string [compare] on
     prefixes, differing lengths and bytes above 0x7f.  Every other key of
     all strings up to length 3 over {\000, a, b, \255} is stored (spanning
     several index blocks); every stored and absent key is probed. *)
  let alphabet = [ "\000"; "a"; "b"; "\255" ] in
  let rec upto n =
    if n = 0 then [ "" ]
    else "" :: List.concat_map (fun c -> List.map (( ^ ) c) (upto (n - 1))) alphabet
  in
  let all = List.sort_uniq compare (upto 3) in
  let stored = List.filteri (fun i _ -> i mod 2 = 1) all in
  let value k = if String.length k = 2 then None else Some ("v" ^ k) in
  let w = make_world ~pages:16384 () in
  in_proc ~uid:0 w (fun fs ->
      okd
        (Kvdb.Sstable.write fs "/k.sst"
           (List.map (fun key -> { Kvdb.Sstable.key; value = value key }) stored));
      let tbl = okd (Kvdb.Sstable.open_ fs "/k.sst") in
      List.iter
        (fun k ->
          let expect = if List.mem k stored then Some (value k) else None in
          Alcotest.(check (option (option string)))
            (Printf.sprintf "get %S" k) expect (Kvdb.Sstable.get tbl k))
        (all @ [ "\255\255\255\255"; "c" ]))

let qcheck_db_matches_model =
  QCheck.Test.make ~name:"kvdb behaves like a Hashtbl" ~count:15
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (triple bool (int_range 0 50) (string_of_size (Gen.int_range 0 600))))
    (fun ops ->
      let w = make_world ~pages:32768 () in
      in_proc ~uid:0 w (fun fs ->
          let db = okd (Kvdb.Db.open_ fs "/db") in
          let model = Hashtbl.create 64 in
          List.iter
            (fun (put, k, v) ->
              let key = Printf.sprintf "key%02d" k in
              if put then begin
                okd (Kvdb.Db.put db ~key ~value:v);
                Hashtbl.replace model key v
              end
              else begin
                okd (Kvdb.Db.delete db ~key);
                Hashtbl.remove model key
              end)
            ops;
          List.for_all
            (fun k ->
              let key = Printf.sprintf "key%02d" k in
              Kvdb.Db.get db ~key = Hashtbl.find_opt model key)
            (List.init 51 Fun.id)))

let test_bench_smoke () =
  let w = make_world ~pages:65536 ~perf:Nvm.Perf.optane () in
  in_proc ~uid:0 w (fun fs ->
      let lat = Kvdb.Db_bench.run fs ~n:200 Kvdb.Db_bench.Write_seq in
      Alcotest.(check bool) "positive latency" true (lat > 0.0);
      Alcotest.(check bool) "sane latency (< 1 ms)" true (lat < 1000.0))

let () =
  Alcotest.run "kvdb"
    [
      ( "basics",
        [
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "fold_all" `Quick test_fold_all_ordered;
        ] );
      ( "durability",
        [
          Alcotest.test_case "wal replay" `Quick test_reopen_recovers_from_wal;
          Alcotest.test_case "reopen after close" `Quick test_reopen_after_close;
        ] );
      ( "lsm",
        [
          Alcotest.test_case "flush to sstable" `Quick
            test_flush_and_read_from_sstable;
          Alcotest.test_case "compaction" `Slow test_compaction_preserves_data;
          Alcotest.test_case "tombstones" `Quick test_tombstones_survive_flush;
          Alcotest.test_case "sstable roundtrip" `Quick test_sstable_roundtrip;
          Alcotest.test_case "sstable get key order" `Quick
            test_sstable_get_key_order;
          QCheck_alcotest.to_alcotest qcheck_db_matches_model;
        ] );
      ("bench", [ Alcotest.test_case "db_bench smoke" `Quick test_bench_smoke ]);
    ]
