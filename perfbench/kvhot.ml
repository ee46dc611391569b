(* kv-hot: the read path under an application.  The LSM store of lib/kvdb
   on ZoFS with one client: 20k keys (16 B key, 100 B value) pre-filled and
   flushed, then 90% get / 10% unsynced put, 80% of the keys drawn from the
   hottest 10% (~230 KB, which fits the simulated line cache).  Memtable
   flushes and compactions happen inside the measured phase. *)

open Common
module Db = Kvdb.Db

let nkeys = 20_000
let value_len = 100
let hot = nkeys / 10
let warmup_ops = 2_000
let ops = 200_000

let key_of i = Printf.sprintf "key%013d" i

(* Latest acknowledged stamp per key (index = key number). *)
let value_ok stamps i v =
  String.length v = value_len
  && segment_ok (Bytes.unsafe_of_string v) ~off:0 ~stamp:stamps.(i)
       ~len:value_len

let verify db stamps =
  let bad = ref 0 in
  Array.iteri
    (fun i _ ->
      match Db.get db ~key:(key_of i) with
      | Some v when value_ok stamps i v -> ()
      | Some _ | None -> incr bad)
    stamps;
  !bad

let run ~seed ~plant =
  let world = Sim.create ~seed:(Int64.of_int seed) () in
  let proc = root_proc () in
  let l = ledger () in
  let h0 = Unix.gettimeofday () in
  let setup_s = ref 0.0 in
  let inst_r = ref None in
  let stamps = Array.make nkeys 0 in
  let stamp = ref 0 in
  let next_stamp () =
    incr stamp;
    !stamp
  in
  let get_lat = ref [] and put_lat = ref [] and all_lat = Array.make ops 0 in
  let failed = ref 0 and user_w = ref 0 and user_r = ref 0 in
  let layers = ref [] and amp_pages = ref 0 and compactions = ref 0 in
  Sim.spawn world ~proc ~name:"kv-client" (fun () ->
      let inst =
        Probe.span "fslab.make" (fun () -> Fslab.make ~pages:65536 Fslab.Zofs)
      in
      inst_r := Some inst;
      let kfs = Option.get inst.Fslab.kernfs in
      Probe.attach_hw inst.Fslab.device (K.mpk kfs);
      let fs = Probe.fs inst.Fslab.fs in
      let db = Result.get_ok (Probe.span "kvdb.open" (fun () -> Db.open_ fs "/kv")) in
      let put i =
        let s = next_stamp () in
        let key = key_of i in
        let r =
          Probe.span "kvdb.put" (fun () ->
              Db.put db ~key ~value:(payload ~stamp:s ~len:value_len))
        in
        if r = Ok () then stamps.(i) <- s;
        r = Ok ()
      in
      for i = 0 to nkeys - 1 do
        ignore (put i)
      done;
      ignore (Probe.span "kvdb.flush" (fun () -> Db.flush db));
      (* the hottest 10% of keys: the contiguous middle of the key space,
         so hot entries share table blocks and their ~230 KB fit the
         simulated cache.  The range stays put across seeds: a seeded
         offset split seeds into two throughput modes ~6% apart, by where
         the range fell against table boundaries. *)
      let rng = Sim.Rng.create (Int64.of_int ((seed * 104729) + 1)) in
      let base = (nkeys - hot) / 2 in
      let pick () =
        if Sim.Rng.int rng 10 < 8 then base + Sim.Rng.int rng hot
        else
          let cold = Sim.Rng.int rng (nkeys - hot) in
          if cold < base then cold else cold + hot
      in
      let one_op ~measured =
        let i = pick () in
        if Sim.Rng.int rng 10 = 0 then begin
          if measured then user_w := !user_w + 16 + value_len;
          (`Put, put i)
        end
        else
          match Probe.span "kvdb.get" (fun () -> Db.get db ~key:(key_of i)) with
          | Some v ->
              if measured then user_r := !user_r + String.length v;
              (`Get, value_ok stamps i v)
          | None -> (`Get, false)
      in
      for _ = 1 to warmup_ops do
        ignore (one_op ~measured:false)
      done;
      setup_s := host_since h0;
      let c0 = Db.compaction_count db in
      begin_phase l inst;
      for n = 0 to ops - 1 do
        Probe.request (n + 1);
        let t0 = Sim.now () in
        let kind, ok = one_op ~measured:true in
        let dt = Sim.now () - t0 in
        all_lat.(n) <- dt;
        (match kind with
        | `Get -> get_lat := dt :: !get_lat
        | `Put -> put_lat := dt :: !put_lat);
        if not ok then incr failed
      done;
      end_phase l;
      compactions := Db.compaction_count db - c0;
      amp_pages := allocated_pages inst;
      let kv_ns = ref 0 in
      Hashtbl.iter
        (fun name (s : Probe.layer_sum) ->
          if String.starts_with ~prefix:"kvdb." name then
            kv_ns := !kv_ns + s.Probe.sim_ns)
        (Probe.summarize ());
      let in_fs =
        Probe.child_sim_ns ~parent:"kvdb.get" ~child_prefix:"vfs."
        + Probe.child_sim_ns ~parent:"kvdb.put" ~child_prefix:"vfs."
      in
      let gets = Stats.sorted_of_list !get_lat
      and puts = Stats.sorted_of_list !put_lat in
      layers :=
        layer_metrics l inst ~ops ~user_written:!user_w ~user_read:!user_r
        @ [
            m "kvdb.get.p50_ns" "ns" (float_of_int (Stats.percentile gets 500));
            m "kvdb.get.p99_ns" "ns" (float_of_int (Stats.percentile gets 990));
            m "kvdb.put.p99_ns" "ns" (float_of_int (Stats.percentile puts 990));
            m "kvdb.compactions" "count" (float_of_int !compactions);
            m "kvdb.fs_share" "ratio"
              (if !kv_ns > 0 then float_of_int in_fs /. float_of_int !kv_ns
               else 0.0);
          ]);
  Sim.run world;
  let inst = Option.get !inst_r in
  let rc = crash_and_recover inst.Fslab.device in
  (* reopen the store (replaying its WAL) and re-read every key *)
  let lost, caught =
    with_recovered_fs rc (fun fs ->
        match Probe.span "kvdb.open" (fun () -> Db.open_ fs "/kv") with
        | Error _ -> (nkeys, not plant)
        | Ok db ->
            let lost = verify db stamps in
            let caught =
              (not plant)
              ||
              (* overwrite one acknowledged key behind the model's back *)
              (Db.put db ~key:(key_of 0) ~value:(String.make value_len 'x')
               = Ok ()
              && verify db stamps = lost + 1)
            in
            (lost, caught))
  in
  let failed = !failed + lost in
  let sorted = Array.copy all_lat in
  Array.sort compare sorted;
  {
    attempted = ops;
    failed;
    sim =
      [ m "sim_kops_per_s" "kops/s" (float_of_int ops *. 1e6 /. float_of_int l.sim_ns) ]
      @ latency_metrics sorted
      @ outcome_metrics ~failed ~attempted:ops rc ~allocated_pages:!amp_pages
          ~live_bytes:(nkeys * (16 + value_len))
      @ [ m "kvdb_compactions" "count" (float_of_int !compactions) ];
    host_s = l.host_s;
    alloc_words = l.alloc;
    setup_s = !setup_s;
    layers = !layers @ recovery_layers rc;
    planted_caught = caught;
    notes = [];
  }
