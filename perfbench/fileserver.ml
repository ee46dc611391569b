(* fileserver: the data path.  One process, four simulated threads, 400
   files of 16 KB in a width-20 tree (6.4 MB, ~25x the 256 KB simulated
   per-thread line cache), Filebench's fileserver mix at R:W ~ 1:2:
   1/6 delete + rewrite 16 KB, 2/6 append 8 KB, 2/6 read the whole file,
   1/6 stat.  Each thread owns every fourth file, so the model of the tree
   stays exact under concurrency; directories are shared. *)

open Common

let nthreads = 4
let nfiles = 400
let width = 20
let file_size = 16384
let append_size = 8192
let warmup_ops = 200
let ops_per_thread = 8000

let path_of i = Printf.sprintf "/t/d%02d/f%03d" (i mod width) i

(* Per file: its payload segments, newest first, and its size.  A file
   whose state became uncertain after a failed op drops out of checking. *)
type file = {
  path : string;
  mutable segs : (int * int) list;  (* (stamp, len), newest first *)
  mutable size : int;
  mutable known : bool;
}

let check_content f buf got =
  got = f.size
  &&
  let ok = ref true and off = ref 0 in
  List.iter
    (fun (stamp, len) ->
      if !ok && not (segment_ok buf ~off:!off ~stamp ~len) then ok := false;
      off := !off + len)
    (List.rev f.segs);
  !ok

let verify_file fs buf f =
  match read_all fs f.path buf with
  | Ok got -> check_content f !buf got
  | Error _ -> false

(* Every acknowledged write, rewrite and append, re-read after recovery. *)
let verify fs files =
  let buf = ref (Bytes.create (4 * file_size)) in
  Array.fold_left
    (fun bad f -> if f.known && not (verify_file fs buf f) then bad + 1 else bad)
    0 files

type kind = Rewrite | Append | Read | Stat

let kind_of r = match r with 0 -> Rewrite | 1 | 2 -> Append | 3 | 4 -> Read | _ -> Stat

let run ~seed ~plant =
  let world = Sim.create ~seed:(Int64.of_int seed) () in
  let proc = root_proc () in
  let l = ledger () in
  let h0 = Unix.gettimeofday () in
  let setup_s = ref 0.0 in
  let inst_r = ref None in
  let files =
    Array.init nfiles (fun i ->
        { path = path_of i; segs = []; size = 0; known = true })
  in
  let stamp = ref 0 in
  let next_stamp () =
    incr stamp;
    !stamp
  in
  let lats = Array.make_matrix nthreads ops_per_thread 0 in
  let failed = ref 0 and user_w = ref 0 and user_r = ref 0 in
  let arrived = ref 0 and started = ref false and finished = ref 0 in
  let layers = ref [] and amp_pages = ref 0 in
  Sim.spawn world ~proc ~name:"setup" (fun () ->
      let inst =
        Probe.span "fslab.make" (fun () -> Fslab.make ~pages:65536 Fslab.Zofs)
      in
      inst_r := Some inst;
      let kfs = Option.get inst.Fslab.kernfs in
      Probe.attach_hw inst.Fslab.device (K.mpk kfs);
      let fs = Probe.fs inst.Fslab.fs in
      for d = 0 to width - 1 do
        ignore (V.mkdir_p fs (Printf.sprintf "/t/d%02d" d) 0o755)
      done;
      let write_new f =
        let s = next_stamp () in
        match V.write_file fs f.path (payload ~stamp:s ~len:file_size) with
        | Ok () ->
            f.segs <- [ (s, file_size) ];
            f.size <- file_size;
            true
        | Error _ ->
            f.known <- false;
            false
      in
      Array.iter (fun f -> ignore (write_new f)) files;
      let one_op rng buf ~measured f =
        match kind_of (Sim.Rng.int rng 6) with
        | Rewrite ->
            let gone = V.unlink fs f.path = Ok () in
            let s = next_stamp () in
            let r = V.write_file fs f.path (payload ~stamp:s ~len:file_size) in
            if measured then user_w := !user_w + file_size;
            if gone && r = Ok () then begin
              f.segs <- [ (s, file_size) ];
              f.size <- file_size;
              true
            end
            else begin
              f.known <- false;
              false
            end
        | Append ->
            let s = next_stamp () in
            let r =
              V.append_file fs f.path (payload ~stamp:s ~len:append_size)
            in
            if measured then user_w := !user_w + append_size;
            if r = Ok () then begin
              f.segs <- (s, append_size) :: f.segs;
              f.size <- f.size + append_size;
              true
            end
            else begin
              f.known <- false;
              false
            end
        | Read -> (
            match read_all fs f.path buf with
            | Ok got ->
                if measured then user_r := !user_r + got;
                (not f.known) || check_content f !buf got
            | Error _ -> false)
        | Stat -> (
            match V.stat fs f.path with
            | Ok st -> (not f.known) || st.Ft.st_size = f.size
            | Error _ -> false)
      in
      for t = 0 to nthreads - 1 do
        Sim.spawn world ~proc ~name:(Printf.sprintf "fileserver-%d" t)
          (fun () ->
            let rng = Sim.Rng.create (Int64.of_int ((seed * 7919) + t)) in
            let mine = nfiles / nthreads in
            let pick () = files.((Sim.Rng.int rng mine * nthreads) + t) in
            let buf = ref (Bytes.create (4 * file_size)) in
            for _ = 1 to warmup_ops do
              ignore (one_op rng buf ~measured:false (pick ()))
            done;
            incr arrived;
            if !arrived = nthreads then begin
              setup_s := host_since h0;
              begin_phase l inst;
              started := true
            end;
            while not !started do
              Sim.advance 1000
            done;
            for i = 0 to ops_per_thread - 1 do
              Probe.request ((t * 1_000_000) + i + 1);
              let f = pick () in
              let t0 = Sim.now () in
              let ok =
                Probe.span "fileserver.op" (fun () ->
                    one_op rng buf ~measured:true f)
              in
              lats.(t).(i) <- Sim.now () - t0;
              if not ok then incr failed
            done;
            incr finished;
            if !finished = nthreads then begin
              end_phase l;
              amp_pages := allocated_pages inst;
              layers :=
                layer_metrics l inst ~ops:(nthreads * ops_per_thread)
                  ~user_written:!user_w ~user_read:!user_r
            end)
      done);
  Sim.run world;
  let inst = Option.get !inst_r in
  let ops = nthreads * ops_per_thread in
  let live =
    Array.fold_left (fun a f -> if f.known then a + f.size else a) 0 files
  in
  let rc = crash_and_recover inst.Fslab.device in
  let lost, caught =
    with_recovered_fs rc (fun fs ->
        let lost = verify fs files in
        let caught =
          (not plant)
          ||
          (* alter one acknowledged file behind the model's back: the
             verification must flag exactly one more file *)
          match Array.find_opt (fun f -> f.known) files with
          | None -> false
          | Some f ->
              let fd = Result.get_ok (V.openf fs f.path [ Ft.O_WRONLY ] 0) in
              ignore (V.pwrite fs fd ~off:0 "planted!");
              ignore (V.close fs fd);
              verify fs files = lost + 1
        in
        (lost, caught))
  in
  let failed = !failed + lost in
  let sorted = Array.concat (Array.to_list lats) in
  Array.sort compare sorted;
  {
    attempted = ops;
    failed;
    sim =
      [ m "sim_kops_per_s" "kops/s" (float_of_int ops *. 1e6 /. float_of_int l.sim_ns) ]
      @ latency_metrics sorted
      @ outcome_metrics ~failed ~attempted:ops rc ~allocated_pages:!amp_pages
          ~live_bytes:live;
    host_s = l.host_s;
    alloc_words = l.alloc;
    setup_s = !setup_s;
    layers = !layers @ recovery_layers rc;
    planted_caught = caught;
    notes = [];
  }
