(* The hot-path performance gate (DESIGN.md §14).

   A pinned set of deterministic single-thread experiments exercises the
   batched µFS commit paths — append growth (the Figure 7(d) staircase),
   create, unlink, same-directory rename, and truncate — on a fresh
   simulated world each, and records per-operation simulated latency,
   persistence-instruction counts (clwb/sfence, with the redundancy split
   the device tracks), kernel crossings, and coffer_enlarge calls.  Two
   multi-process experiments ride along: 64 tenant processes — each with
   its own FSLib (dispatcher + FD table + per-process mappings) — hammer
   one shared file / one shared directory through the syscall gate, so the
   baseline also pins the cross-process lease-handoff cost.  One offline
   recovery of a fixed tree closes the set.

   Everything measured is simulated and cooperatively scheduled, so two
   runs of the same binary produce byte-identical numbers; the committed
   baseline (BENCH_perf.json at the repository root) therefore encodes the
   exact cost of every hot path, and `dune build @perf` fails when a change
   regresses any per-op metric beyond tolerance.  Improvements are reported
   and become the new baseline by re-running with --write-baseline. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module FL = Workloads.Fslab
module J = Obs.Json

let schema = "zofs-perf-1"

type metrics = {
  ops : int;
  sim_ns : int;  (* total simulated time of the measured phase *)
  flushes : int;
  redundant_flushes : int;
  fences : int;
  redundant_fences : int;
  crossings : int;  (* kernel syscalls during the measured phase *)
  enlarge_calls : int;
}

type result = { r_name : string; r_m : metrics }

let per_op m total = float_of_int total /. float_of_int (max 1 m.ops)
let ns_per_op m = per_op m m.sim_ns
let flushes_per_op m = per_op m m.flushes
let fences_per_op m = per_op m m.fences
let crossings_per_op m = per_op m m.crossings

(* ---- the pinned experiments ------------------------------------------- *)

let ok = function
  | Ok v -> v
  | Error e -> failwith ("perf_gate: " ^ Treasury.Errno.to_string e)

(* Run [f] as the measured phase on [dev] / [kfs]: device stats, the
   syscall counter and the enlarge counter bracket exactly [f]. *)
let measure ~ops dev kfs f =
  Nvm.Device.reset_stats dev;
  let c0 = Treasury.Gate.syscall_count (Treasury.Kernfs.gate kfs) in
  let e0 = Treasury.Kernfs.enlarge_count kfs in
  let t0 = Sim.now () in
  f ();
  {
    ops;
    sim_ns = Sim.now () - t0;
    flushes = Nvm.Device.stat_flushes dev;
    redundant_flushes = Nvm.Device.stat_redundant_flushes dev;
    fences = Nvm.Device.stat_fences dev;
    redundant_fences = Nvm.Device.stat_redundant_fences dev;
    crossings = Treasury.Gate.syscall_count (Treasury.Kernfs.gate kfs) - c0;
    enlarge_calls = Treasury.Kernfs.enlarge_count kfs - e0;
  }

let root_proc () = Sim.Proc.create ~uid:0 ~gid:0 ()

(* Run [measured] in a fresh single-thread ZoFS world after [setup]. *)
let in_world ~ops ~setup ~measured () =
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      let inst = FL.make ~pages:16384 FL.Zofs in
      setup inst.FL.fs;
      measure ~ops inst.FL.device (Option.get inst.FL.kernfs) (fun () ->
          measured inst.FL.fs))

let block = String.make 4096 'p'

(* 4 KB appends to one file: the growth staircase.  [ops] pages plus the
   pointer pages the file needs, so the enlarge count exposes the
   batching/doubling policy directly. *)
let exp_append ~ops () =
  in_world ~ops
    ~setup:(fun fs -> ok (V.write_file fs "/a" ~mode:0o644 ""))
    ~measured:(fun fs ->
      let fd = ok (V.openf fs "/a" [ Ft.O_WRONLY; Ft.O_APPEND ] 0) in
      for _ = 1 to ops do
        ignore (ok (V.write fs fd block))
      done;
      ok (V.close fs fd))
    ()

(* Empty-file create (open O_CREAT + close), all in one directory. *)
let exp_create ~ops () =
  in_world ~ops
    ~setup:(fun fs -> ok (V.mkdir fs "/d" 0o755))
    ~measured:(fun fs ->
      for i = 1 to ops do
        let fd =
          ok
            (V.openf fs
               (Printf.sprintf "/d/c%d" i)
               [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644)
        in
        ok (V.close fs fd)
      done)
    ()

(* Unlink of pre-created one-block files. *)
let exp_unlink ~ops () =
  in_world ~ops
    ~setup:(fun fs ->
      ok (V.mkdir fs "/d" 0o755);
      for i = 1 to ops do
        ok (V.write_file fs (Printf.sprintf "/d/u%d" i) ~mode:0o644 block)
      done)
    ~measured:(fun fs ->
      for i = 1 to ops do
        ok (V.unlink fs (Printf.sprintf "/d/u%d" i))
      done)
    ()

(* Same-directory rename of pre-created files (the MWRL op). *)
let exp_rename ~ops () =
  in_world ~ops
    ~setup:(fun fs ->
      ok (V.mkdir fs "/d" 0o755);
      for i = 1 to ops do
        ok (V.write_file fs (Printf.sprintf "/d/r%d" i) ~mode:0o644 "")
      done)
    ~measured:(fun fs ->
      for i = 1 to ops do
        ok
          (V.rename fs
             (Printf.sprintf "/d/r%d" i)
             (Printf.sprintf "/d/rn%d" i))
      done)
    ()

(* Shrinking truncate of 8-block files (the Trunc-intention path). *)
let exp_truncate ~ops () =
  in_world ~ops
    ~setup:(fun fs ->
      ok (V.mkdir fs "/d" 0o755);
      for i = 1 to ops do
        let fd =
          ok
            (V.openf fs
               (Printf.sprintf "/d/t%d" i)
               [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644)
        in
        for _ = 1 to 8 do
          ignore (ok (V.write fs fd block))
        done;
        ok (V.close fs fd)
      done)
    ~measured:(fun fs ->
      for i = 1 to ops do
        ok (V.truncate fs (Printf.sprintf "/d/t%d" i) 4096)
      done)
    ()

(* Offline recovery (paper §6.5) of a fixed tree — 20 directories of 20
   16 KB files in one coffer — after a power failure and a KernFS remount:
   one op, the whole recover_all. *)
let exp_recover () =
  let dev =
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        let inst = FL.make ~pages:16384 FL.Zofs in
        let fs = inst.FL.fs and data = String.make 16384 'r' in
        for d = 1 to 20 do
          ok (V.mkdir fs (Printf.sprintf "/d%d" d) 0o755);
          for f = 1 to 20 do
            ok
              (V.write_file fs
                 (Printf.sprintf "/d%d/f%d" d f)
                 ~mode:0o644 data)
          done
        done;
        inst.FL.device)
  in
  Nvm.Device.crash dev;
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      let kfs = Treasury.Kernfs.mount dev (Mpk.create dev) in
      measure ~ops:1 dev kfs (fun () -> ignore (Zofs.Recovery.recover_all kfs)))

(* Like [in_world], but [nprocs] tenant processes.  Each tenant is a
   fresh [Sim.Proc] with its own FSLib built over the one shared KernFS —
   so every op crosses the syscall gate of its own process and contends
   for the shared coffer's lease against the other 63.  The sim schedules
   tenants by (time, seq): deterministic, so the committed baseline pins
   the cross-process interleaving cost exactly.  Tenants carry an obs
   label keyed by their index (not their pid — pids are a global counter,
   not stable across runs) so zofs_top/zofs_stat attribute latency per
   tenant when obs is enabled. *)
let in_shared_world ~nprocs ~ops_per_proc ~setup ~worker () =
  let world = Sim.create () in
  let result = ref None in
  Sim.spawn world
    ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
    ~name:"shared-setup"
    (fun () ->
      let inst = FL.make ~pages:16384 FL.Zofs in
      let kfs = Option.get inst.FL.kernfs in
      let dev = inst.FL.device in
      setup inst.FL.fs;
      Nvm.Device.reset_stats dev;
      let c0 = Treasury.Gate.syscall_count (Treasury.Kernfs.gate kfs) in
      let e0 = Treasury.Kernfs.enlarge_count kfs in
      let t0 = Sim.now () in
      let live = ref nprocs in
      for p = 0 to nprocs - 1 do
        Sim.spawn world
          ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
          ~name:(Printf.sprintf "tenant-%d" p)
          (fun () ->
            Obs.set_tenant p;
            let fs = FL.zofs_fslib kfs in
            let run_op = worker fs p in
            for i = 0 to ops_per_proc - 1 do
              run_op i;
              Sim.advance 200
            done;
            decr live;
            (* the last tenant to drain closes the measured phase *)
            if !live = 0 then
              result :=
                Some
                  {
                    ops = nprocs * ops_per_proc;
                    sim_ns = Sim.now () - t0;
                    flushes = Nvm.Device.stat_flushes dev;
                    redundant_flushes = Nvm.Device.stat_redundant_flushes dev;
                    fences = Nvm.Device.stat_fences dev;
                    redundant_fences = Nvm.Device.stat_redundant_fences dev;
                    crossings =
                      Treasury.Gate.syscall_count (Treasury.Kernfs.gate kfs)
                      - c0;
                    enlarge_calls = Treasury.Kernfs.enlarge_count kfs - e0;
                  })
      done);
  Sim.run world;
  Option.get !result

(* 64 processes appending 4 KB blocks to one shared file: the Table 2
   worst case, dominated by lease handoff between processes. *)
let exp_shared_append ~nprocs ~ops_per_proc () =
  in_shared_world ~nprocs ~ops_per_proc
    ~setup:(fun fs -> ok (V.write_file fs "/shared" ~mode:0o644 ""))
    ~worker:(fun fs _p ->
      let fd = ref None in
      fun _i ->
        let f =
          match !fd with
          | Some f -> f
          | None ->
              let f =
                ok (V.openf fs "/shared" [ Ft.O_WRONLY; Ft.O_APPEND ] 0)
              in
              fd := Some f;
              f
        in
        ignore (ok (V.write fs f block)))
    ()

(* 64 processes creating empty files in one shared directory. *)
let exp_shared_create ~nprocs ~ops_per_proc () =
  in_shared_world ~nprocs ~ops_per_proc
    ~setup:(fun fs -> ok (V.mkdir fs "/sdir" 0o755))
    ~worker:(fun fs p i ->
      let fd =
        ok
          (V.openf fs
             (Printf.sprintf "/sdir/p%d_f%d" p i)
             [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644)
      in
      ok (V.close fs fd))
    ()

let experiments ~quick =
  let s n = if quick then n / 2 else n in
  [
    ("append", fun () -> exp_append ~ops:(s 256) ());
    ("create", fun () -> exp_create ~ops:(s 96) ());
    ("unlink", fun () -> exp_unlink ~ops:(s 96) ());
    ("rename", fun () -> exp_rename ~ops:(s 96) ());
    ("truncate", fun () -> exp_truncate ~ops:(s 48) ());
    ( "shared-append-64p",
      fun () -> exp_shared_append ~nprocs:64 ~ops_per_proc:(s 8) () );
    ( "shared-create-64p",
      fun () -> exp_shared_create ~nprocs:64 ~ops_per_proc:(s 8) () );
    ("recover", exp_recover);
  ]

let run_all ~quick () =
  List.map (fun (name, f) -> { r_name = name; r_m = f () }) (experiments ~quick)

(* ---- JSON ------------------------------------------------------------- *)

let num n = J.Num (float_of_int n)

let metrics_to_json m =
  J.Obj
    [
      ("ops", num m.ops);
      ("sim_ns", num m.sim_ns);
      ("flushes", num m.flushes);
      ("redundant_flushes", num m.redundant_flushes);
      ("fences", num m.fences);
      ("redundant_fences", num m.redundant_fences);
      ("crossings", num m.crossings);
      ("enlarge_calls", num m.enlarge_calls);
    ]

let to_json results =
  J.Obj
    [
      ("schema", J.Str schema);
      ( "experiments",
        J.Arr
          (List.map
             (fun r ->
               J.Obj
                 (("name", J.Str r.r_name)
                 ::
                 (match metrics_to_json r.r_m with
                 | J.Obj fields -> fields
                 | _ -> [])))
             results) );
    ]

let int_member name j =
  match J.member name j with
  | Some (J.Num v) -> Ok (int_of_float v)
  | _ -> Error (Printf.sprintf "missing numeric field %S" name)

let ( let* ) = Result.bind

let metrics_of_json j =
  let* ops = int_member "ops" j in
  let* sim_ns = int_member "sim_ns" j in
  let* flushes = int_member "flushes" j in
  let* redundant_flushes = int_member "redundant_flushes" j in
  let* fences = int_member "fences" j in
  let* redundant_fences = int_member "redundant_fences" j in
  let* crossings = int_member "crossings" j in
  let* enlarge_calls = int_member "enlarge_calls" j in
  Ok
    {
      ops;
      sim_ns;
      flushes;
      redundant_flushes;
      fences;
      redundant_fences;
      crossings;
      enlarge_calls;
    }

let of_json j =
  match J.member "schema" j with
  | Some (J.Str s) when s = schema -> (
      match J.member "experiments" j with
      | Some (J.Arr items) ->
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              match J.member "name" item with
              | Some (J.Str name) ->
                  let* m = metrics_of_json item in
                  Ok ({ r_name = name; r_m = m } :: acc)
              | _ -> Error "experiment without a name")
            (Ok []) items
          |> Result.map List.rev
      | _ -> Error "no experiments array")
  | Some (J.Str s) -> Error (Printf.sprintf "unknown schema %S" s)
  | _ -> Error "missing schema"

let write_file path results =
  let oc = open_out path in
  output_string oc (J.to_string (to_json results));
  output_char oc '\n';
  close_out oc

let read_file path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s ->
      let* j = J.of_string (String.trim s) in
      of_json j

(* ---- trend comparison -------------------------------------------------- *)

(* Everything is deterministic, so the tolerance only absorbs incidental
   drift (an unrelated change moving a counter by a hair) — a real
   regression in a hot path moves per-op numbers far beyond 10%.  Only
   increases fail; decreases are improvements worth re-baselining. *)
let default_tol = 0.10

type verdict = {
  regressions : string list;
  improvements : string list;
  notes : string list;
}

let clean v = v.regressions = []

(* The one tolerance rule, shared with the obs gate (bin/zofs_obs):
   [tol] relative band plus 0.5 of absolute slop (so near-zero counters
   don't trip on a one-event shift).  An increase beyond the band is a
   regression; a decrease beyond it is an improvement — unless
   [both_ways] is set (coverage dimensions: spans recorded, labelled
   series, flight events — losing instrumentation is a regression too). *)
let check_dim ?(tol = default_tol) ?(both_ways = false) ~name ~base ~cur
    ~regressions ~improvements () =
  if cur > (base *. (1.0 +. tol)) +. 0.5 then
    regressions :=
      Printf.sprintf "%s %.2f -> %.2f (+%.0f%%)" name base cur
        (100.0 *. ((cur /. Float.max base 1e-9) -. 1.0))
      :: !regressions
  else if base > (cur *. (1.0 +. tol)) +. 0.5 then begin
    if both_ways then
      regressions :=
        Printf.sprintf "%s %.2f -> %.2f (dropped beyond tolerance)" name base
          cur
        :: !regressions
    else
      improvements := Printf.sprintf "%s %.2f -> %.2f" name base cur
        :: !improvements
  end

let compare_results ?(tol = default_tol) ~baseline ~current () =
  let regressions = ref [] and improvements = ref [] and notes = ref [] in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.r_name = b.r_name) current with
      | None ->
          regressions :=
            Printf.sprintf "%s: experiment missing from current run" b.r_name
            :: !regressions
      | Some c ->
          if b.r_m.ops <> c.r_m.ops then
            notes :=
              Printf.sprintf "%s: ops %d -> %d (per-op comparison only)"
                b.r_name b.r_m.ops c.r_m.ops
              :: !notes;
          let dim name base cur =
            check_dim ~tol
              ~name:(Printf.sprintf "%s: %s/op" b.r_name name)
              ~base ~cur ~regressions ~improvements ()
          in
          dim "sim_ns" (ns_per_op b.r_m) (ns_per_op c.r_m);
          dim "flushes" (flushes_per_op b.r_m) (flushes_per_op c.r_m);
          dim "fences" (fences_per_op b.r_m) (fences_per_op c.r_m);
          dim "crossings" (crossings_per_op b.r_m) (crossings_per_op c.r_m);
          dim "enlarge_calls"
            (per_op b.r_m b.r_m.enlarge_calls)
            (per_op c.r_m c.r_m.enlarge_calls))
    baseline;
  List.iter
    (fun c ->
      if not (List.exists (fun b -> b.r_name = c.r_name) baseline) then
        notes :=
          Printf.sprintf "%s: new experiment (no baseline)" c.r_name :: !notes)
    current;
  {
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    notes = List.rev !notes;
  }

(* ---- rendering ---------------------------------------------------------- *)

let render_results results =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "  %-17s %6s %12s %10s %9s %10s %9s\n" "experiment" "ops"
       "sim-ns/op" "flush/op" "fence/op" "cross/op" "enlarge");
  List.iter
    (fun r ->
      let m = r.r_m in
      Buffer.add_string b
        (Printf.sprintf "  %-17s %6d %12.0f %10.2f %9.2f %10.3f %9d\n" r.r_name
           m.ops (ns_per_op m) (flushes_per_op m) (fences_per_op m)
           (crossings_per_op m) m.enlarge_calls))
    results;
  Buffer.contents b

let render_verdict v =
  let b = Buffer.create 256 in
  List.iter (fun s -> Buffer.add_string b ("  REGRESSION " ^ s ^ "\n")) v.regressions;
  List.iter (fun s -> Buffer.add_string b ("  improved   " ^ s ^ "\n")) v.improvements;
  List.iter (fun s -> Buffer.add_string b ("  note       " ^ s ^ "\n")) v.notes;
  if v.regressions = [] && v.improvements = [] && v.notes = [] then
    Buffer.add_string b "  no change vs baseline\n";
  Buffer.contents b
