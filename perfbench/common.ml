(* What every workload shares: the result of one repetition, the measured
   phase's host ledger, crash + recovery, payload fingerprints and the
   per-layer metrics read from Obs, the device and the benchmark's own
   probes. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module E = Treasury.Errno
module K = Treasury.Kernfs
module Fslab = Workloads.Fslab

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* One repetition of a workload: a fresh world, set-up, the measured
   phase, the end-of-run crash, recovery and verification. *)
type rep = {
  attempted : int;
  failed : int;
  sim : metric list;
      (** simulated-clock results: identical for identical seeds *)
  host_s : float;  (** host wall seconds of the measured phase *)
  alloc_words : float;  (** OCaml words allocated in the measured phase *)
  setup_s : float;  (** host seconds of world build, preload, warm-up *)
  layers : metric list;  (** per-layer metrics (traced repetitions) *)
  planted_caught : bool;  (** the planted fault was flagged *)
  notes : string list;
}

let root_proc () = Sim.Proc.create ~uid:0 ~gid:0 ()

(* ---- measured-phase host ledger ----------------------------------------- *)

let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

type ledger = {
  mutable host0 : float;
  mutable alloc0 : float;
  mutable sim0 : int;
  mutable host_s : float;
  mutable alloc : float;
  mutable sim_ns : int;
  mutable flushes0 : int;
  mutable rflushes0 : int;
  mutable fences0 : int;
  mutable rfences0 : int;
  mutable faults0 : int;
}

let ledger () =
  {
    host0 = 0.;
    alloc0 = 0.;
    sim0 = 0;
    host_s = 0.;
    alloc = 0.;
    sim_ns = 0;
    flushes0 = 0;
    rflushes0 = 0;
    fences0 = 0;
    rfences0 = 0;
    faults0 = 0;
  }

module D = Nvm.Device

(* Called from inside the simulation, with no syscall in flight, when the
   measured phase begins: zero Obs and the probes, note device totals. *)
let begin_phase l (inst : Fslab.instance) =
  let kfs = Option.get inst.Fslab.kernfs in
  let dev = inst.Fslab.device in
  Obs.reset ();
  Probe.reset_hw ();
  Probe.counting := true;
  l.flushes0 <- D.stat_flushes dev;
  l.rflushes0 <- D.stat_redundant_flushes dev;
  l.fences0 <- D.stat_fences dev;
  l.rfences0 <- D.stat_redundant_fences dev;
  l.faults0 <- Mpk.fault_count (K.mpk kfs);
  l.sim0 <- Sim.now ();
  l.alloc0 <- alloc_words ();
  l.host0 <- Unix.gettimeofday ()

let end_phase l =
  l.host_s <- Unix.gettimeofday () -. l.host0;
  l.alloc <- alloc_words () -. l.alloc0;
  l.sim_ns <- Sim.now () - l.sim0;
  Probe.counting := false

let host_since t0 = Unix.gettimeofday () -. t0

(* ---- payloads with fingerprints ------------------------------------------ *)

(* A payload segment is [len] bytes: its stamp (a unique int) as 8
   little-endian bytes, then a fill byte derived from the stamp.  Reads are
   checked segment by segment against the model: stamp, first and last fill
   byte.  Segments are at least 9 bytes long. *)
let fill_of stamp = Char.chr (97 + (stamp mod 26))

let payload ~stamp ~len =
  let b = Bytes.make len (fill_of stamp) in
  Bytes.set_int64_le b 0 (Int64.of_int stamp);
  Bytes.unsafe_to_string b

let segment_ok buf ~off ~stamp ~len =
  Int64.to_int (Bytes.get_int64_le buf off) = stamp
  && Bytes.get buf (off + 8) = fill_of stamp
  && Bytes.get buf (off + len - 1) = fill_of stamp

(* Read the whole file at [path] into [buf] (grown as needed); returns the
   byte count. *)
let read_all fs path buf =
  match V.openf fs path [ Ft.O_RDONLY ] 0 with
  | Error e -> Error e
  | Ok fd ->
      let rec loop off =
        if off = Bytes.length !buf then begin
          let b = Bytes.create (2 * Bytes.length !buf) in
          Bytes.blit !buf 0 b 0 off;
          buf := b
        end;
        match V.read fs fd !buf off (Bytes.length !buf - off) with
        | Ok 0 -> Ok off
        | Ok k -> loop (off + k)
        | Error e -> Error e
      in
      let r = loop 0 in
      ignore (V.close fs fd);
      r

(* ---- crash + recovery ------------------------------------------------------ *)

type recovery = {
  r_kfs : K.t;
  r_sim_ns : int;
  r_user_ns : int;
  r_kernel_ns : int;
  r_reclaimed : int;
  r_host_s : float;
}

(* Power-fail the device at the end of the measured phase, remount KernFS
   and run the offline recovery over every coffer. *)
let crash_and_recover dev =
  D.crash dev;
  let h0 = Unix.gettimeofday () in
  let kfs, rep, dt =
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        let mpk = Mpk.create dev in
        let kfs = Probe.span "kernfs.mount" (fun () -> K.mount dev mpk) in
        let t0 = Sim.now () in
        let rep =
          Probe.span "recovery.recover_all" (fun () ->
              Zofs.Recovery.recover_all kfs)
        in
        (kfs, rep, Sim.now () - t0))
  in
  {
    r_kfs = kfs;
    r_sim_ns = dt;
    r_user_ns = rep.Zofs.Recovery.user_ns;
    r_kernel_ns = rep.Zofs.Recovery.kernel_ns;
    r_reclaimed = rep.Zofs.Recovery.pages_reclaimed;
    r_host_s = host_since h0;
  }

(* Run [f] with a fresh FSLib over the recovered KernFS. *)
let with_recovered_fs r f =
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      f (Probe.fs (Fslab.zofs_fslib r.r_kfs)))

let allocated_pages (inst : Fslab.instance) =
  D.pages inst.Fslab.device - K.free_pages (Option.get inst.Fslab.kernfs)

(* ---- per-layer metrics --------------------------------------------------- *)

let counter name = float_of_int (Obs.Counter.value (Obs.Counter.make name))

let hist_p name pm =
  let h = Obs.Histogram.hist (Obs.Histogram.make name) in
  float_of_int (Obs.Hist.percentile h (float_of_int pm /. 1000.0))

(* The syscalls whose latency histograms are reported; a workload that
   never issues one reports 0 for it. *)
let syscalls =
  [ "open"; "close"; "read"; "pread"; "write"; "stat"; "fstat"; "unlink";
    "rename"; "fsync" ]

(* Per-layer metrics common to all workloads, read at the end of the
   measured phase ([ops] operations, [user_written]/[user_read] payload
   bytes as the benchmark counts them). *)
let layer_metrics l (inst : Fslab.instance) ~ops ~user_written ~user_read =
  let kfs = Option.get inst.Fslab.kernfs in
  let dev = inst.Fslab.device in
  let per x = Stats.per_op x ops in
  let ratio a b = if b <= 0 then 0.0 else float_of_int a /. float_of_int b in
  let flushes = D.stat_flushes dev - l.flushes0 in
  let rflushes = D.stat_redundant_flushes dev - l.rflushes0 in
  let fences = D.stat_fences dev - l.fences0 in
  let rfences = D.stat_redundant_fences dev - l.rfences0 in
  let crossings = counter "gate.crossings" in
  let kern_ns = counter "layer.kernfs_ns" in
  let acquires = counter "lease.acquires" in
  let sums = Probe.summarize () in
  let vfs_calls, vfs_host =
    Hashtbl.fold
      (fun name (s : Probe.layer_sum) (c, h) ->
        if String.starts_with ~prefix:"vfs." name then
          (c + s.Probe.host_count, h + s.Probe.host_ns)
        else (c, h))
      sums (0, 0)
  in
  [
    m "dispatcher.syscalls_per_op" "count" (per (counter "syscall.count"));
    m "dispatcher.fslib_ns_per_op" "ns" (per (counter "layer.fslib_ns"));
    m "dispatcher.host_ns_per_call" "ns" (ratio vfs_host vfs_calls);
  ]
  @ List.concat_map
      (fun sc ->
        [
          m (Printf.sprintf "dispatcher.%s.p50_ns" sc) "ns"
            (hist_p ("syscall." ^ sc) 500);
          m (Printf.sprintf "dispatcher.%s.p99_ns" sc) "ns"
            (hist_p ("syscall." ^ sc) 990);
        ])
      syscalls
  @ [
      m "gate.crossings_per_op" "count" (per crossings);
      m "kernfs.ns_per_op" "ns" (per kern_ns);
      m "kernfs.ns_per_crossing" "ns"
        (if crossings > 0. then kern_ns /. crossings else 0.0);
      m "kernfs.enlarge_calls" "count" (counter "enlarge.calls");
      m "kernfs.coffer_maps" "count" (counter "coffer.maps");
      m "nvm.media_ns_per_op" "ns" (per (counter "nvm.media_ns"));
      m "nvm.write_bytes_per_user_byte" "ratio"
        (ratio Probe.hw.Probe.write_bytes user_written);
      m "nvm.read_bytes_per_user_byte" "ratio"
        (ratio Probe.hw.Probe.read_bytes user_read);
      m "nvm.flushes_per_op" "count" (per (float_of_int flushes));
      m "nvm.fences_per_op" "count" (per (float_of_int fences));
      m "nvm.useful_flush_ratio" "ratio" (ratio (flushes - rflushes) flushes);
      m "nvm.useful_fence_ratio" "ratio" (ratio (fences - rfences) fences);
      m "pbatch.flushes_elided_per_op" "count"
        (per (counter "pbatch.flushes_elided"));
      m "pbatch.fences_elided_per_op" "count"
        (per (counter "pbatch.fences_elided"));
      m "mpk.pkru_writes_per_op" "count"
        (per (float_of_int Probe.hw.Probe.pkru_writes));
      m "mpk.faults" "count"
        (float_of_int (Mpk.fault_count (K.mpk kfs) - l.faults0));
      m "lease.acquires_per_op" "count" (per acquires);
      m "lease.retries_per_acquire" "count"
        (if acquires > 0. then counter "lease.retries" /. acquires else 0.0);
      m "lease.wait_ns_per_op" "ns" (per (counter "lease.wait_ns"));
      m "lease.steals" "count" (counter "lease.steals");
      m "lease.aborts" "count" (counter "lease.aborts");
      m "balloc.slot_lost_enlarges" "count"
        (counter "balloc.slot_lost_enlarges");
      m "obs.spans" "count"
        (float_of_int (Obs.Trace.recorded () + Obs.Trace.dropped ()));
      m "obs.spans_dropped" "count" (float_of_int (Obs.Trace.dropped ()));
    ]

(* What every workload reports about failures, recovery and space. *)
let outcome_metrics ~failed ~attempted r ~allocated_pages ~live_bytes =
  [
    m "fail_ratio" "ratio" (Stats.fail_ratio ~failed ~attempted);
    m "recover_sim_ms" "ms" (float_of_int r.r_sim_ns /. 1e6);
    m "space_amp" "ratio"
      (Stats.space_amp ~page_size:Nvm.page_size ~allocated_pages ~live_bytes);
  ]

let recovery_layers r =
  [
    m "recovery.user_ms" "ms" (float_of_int r.r_user_ns /. 1e6);
    m "recovery.kernel_ms" "ms" (float_of_int r.r_kernel_ns /. 1e6);
    m "recovery.pages_reclaimed" "count" (float_of_int r.r_reclaimed);
    m "recovery.host_s" "s" r.r_host_s;
  ]

(* End-to-end simulated latency metrics over sorted per-op latencies. *)
let latency_metrics sorted =
  let n = Array.length sorted in
  [
    m "sim_p50_ns" "ns" (float_of_int (Stats.percentile sorted 500));
    m "sim_p99_ns" "ns" (float_of_int (Stats.percentile sorted 990));
  ]
  @ (match Stats.tail_percentile sorted 999 with
    | Some v -> [ m "sim_p999_ns" "ns" (float_of_int v) ]
    | None -> [])
  @ [
      m "sim_p50_band_ns" "ns" (Stats.band_mean sorted ~lo:450 ~hi:550);
      m "sim_p99_band_ns" "ns" (Stats.band_mean sorted ~lo:985 ~hi:995);
      m "latency_samples" "count" (float_of_int n);
    ]
