(* chaos: a randomized fault-injection campaign over a live ZoFS instance.

   One simulated world, one KernFS, MANY FSLibs processes: the driver
   process plus a pool of tenant processes, each with its own dispatcher,
   FD table and page table, sharing coffers only through the syscall gate
   and the NVM device.  The campaign interleaves application traffic (the
   fxmark / filebench / fslab op scripts, generated churn, and the tenants'
   cross-process shared-file appends and shared-directory creates) with
   four injection kinds:

     poison     NVM media errors on victim-coffer metadata lines (some
                sticky — persistently failing cells)
     kill       lease-holder death mid-syscall: alternately a single
                thread and a WHOLE PROCESS (every thread of a victim pid
                dies at its next Sim.advance, no unwinding; a
                survivor then reaps the dead pid's kernel state and the
                next op on the structure steals the lease and repairs the
                intention record — the cross-process recovery of §5.2)
     transient  injected ENOMEM/EAGAIN on coffer_enlarge / coffer_map,
                absorbed by FSLib's bounded retry
     scribble   stray user-space stores into coffer pages that MPK must
                block

   and checks the containment invariants the fault-domain design promises:
   no exception ever escapes the dispatcher, a never-injected canary coffer
   stays fully available throughout, a quarantined coffer refuses writes,
   every armed fault is accounted for (tripped, healed by scrub-on-write,
   patrol-scrubbed, or fenced inside a quarantined domain), and a
   post-campaign offline fsck is a clean fixpoint.

   The campaign is also its own negative self-check
   ({!negative_selfcheck}): with quarantine disabled, a persistently
   failing coffer is never fenced, and the campaign must report the
   containment violation — proving the gate can see the bug class it
   exists for. *)

module D = Nvm.Device
module K = Treasury.Kernfs
module V = Treasury.Vfs
module E = Treasury.Errno
module Cf = Treasury.Coffer
module Op = Workloads.Opscript

type report = {
  c_rounds : int;
  c_ops : int;  (* syscall-level ops applied (including probes) *)
  (* armed, per kind *)
  c_armed_poison : int;
  c_armed_kills : int;
  c_armed_transients : int;
  c_armed_scribbles : int;
  (* tripped, per kind *)
  c_media_faults : int;  (* loads that faulted on poisoned lines *)
  c_kills_fired : int;  (* threads killed (single-thread + whole-process) *)
  c_armed_proc_kills : int;  (* whole-process kills attempted *)
  c_proc_kills : int;  (* processes with >= 1 thread actually killed *)
  c_procs_reaped : int;  (* dead pids deregistered via reap_process *)
  c_transients_tripped : int;
  c_scribbles_blocked : int;
  c_faults_tripped : int;  (* sum of the four above *)
  (* poison end-of-life accounting *)
  c_poison_healed : int;  (* scrubbed by an ordinary store *)
  c_poison_scrubbed : int;  (* cleared by the end-of-campaign patrol scrub *)
  c_poison_fenced : int;  (* still poisoned inside a quarantined coffer *)
  c_transient_residue : int;  (* armed but never tripped (drained) *)
  (* self-healing activity (obs counter deltas) *)
  c_repairs_ok : int;
  c_repairs_failed : int;
  c_quarantined : int;  (* coffers quarantined at campaign end *)
  c_offline : int;
  c_lease_steals : int;
  c_intent_repairs : int;
  c_graceful_errors : int;
  c_fsck_findings : int;  (* first post-campaign offline pass *)
  c_violations : string list;  (* containment violations; must be [] *)
  c_flight_dumps : string list;  (* flight-recorder dumps written this run *)
}

let canary_path = "/canary"
let canary_data = Op.payload ~tag:4242 300
let n_victims = 6
let victim_path i = Printf.sprintf "/v%d" i
let n_tenants = 4
let shared_path = "/work/shared"

(* One FSLibs instance for the CALLING process: must run inside the sim
   thread of the process that will use it (fs_mount registers that pid). *)
let fslib_for kfs =
  let disp = Treasury.Dispatcher.create kfs in
  let ufs = Zofs.Ufs.create kfs in
  Treasury.Dispatcher.register_ufs disp (module Zofs.Ufs) ufs;
  Treasury.Dispatcher.set_repair disp (fun cid ->
      Zofs.Recovery.recover_one kfs cid);
  Treasury.Dispatcher.as_vfs disp

(* Build ZoFS + the driver's own FSLibs instance, wiring the online
   self-healing callback (scoped fsck of one coffer). *)
let make_fs ~pages ~quarantine =
  let dev = D.create ~perf:Nvm.Perf.optane ~size:(pages * Nvm.page_size) () in
  let mpk = Mpk.create dev in
  Obs.attach_device dev;
  let kfs =
    K.mkfs dev mpk ~nbuckets:1024 ~root_ctype:Zofs.Ufs.ctype ~root_mode:0o755
      ~root_uid:0 ~root_gid:0 ()
  in
  Zofs.Ufs.mkfs kfs;
  K.set_quarantine_enabled kfs quarantine;
  (dev, kfs, fslib_for kfs)

let run ?(seed = 11L) ?(pages = 16384) ?(min_faults = 200) ?(max_rounds = 600)
    ?(quarantine = true) ?(flight_dir = ".") () =
  (* Spans on: the flight-recorder dump written at quarantine time carries
     the faulting op's span trace, so the campaign needs the ring live even
     if a caller had enabled obs with spans off.  The flight window is reset
     so each campaign records its own black box (and its own per-(coffer,
     state) dump rate-limit). *)
  Obs.enable ();
  Obs.Flight.reset ();
  Obs.Flight.set_autodump ~dir:flight_dir true;
  let dumps0 = List.length (Obs.Flight.dump_paths ()) in
  let snap0 = Obs.Snapshot.take () in
  let w = Sim.create ~seed () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let out = ref None in
  Sim.spawn w ~proc ~name:"chaos-driver" (fun () ->
      let dev, kfs, fs = make_fs ~pages ~quarantine in
      let rng = Sim.Rng.create (Int64.add seed 0x5EEDL) in
      let violations = ref [] in
      let violation msg =
        (* a campaign invariant failing is exactly what the black box is
           for: record it and (auto-dump armed) write the post-mortem *)
        Obs.Flight.invariant_failure msg;
        if List.length !violations < 40 then violations := msg :: !violations
      in
      let ops = ref 0 in
      let guard op =
        incr ops;
        match Op.apply fs op with
        | Ok () | Error _ -> ()
        | exception e ->
            violation
              (Printf.sprintf "exception escaped the dispatcher: %s (op: %s)"
                 (Printexc.to_string e) (Op.op_to_string op))
      in
      (* ---- populate: canary, victims, and the three workload trees ---- *)
      guard (Op.Mkdir "/work");
      guard (Op.Create { path = canary_path; mode = 0o600; data = canary_data });
      for i = 0 to n_victims - 1 do
        guard
          (Op.Create
             { path = victim_path i; mode = 0o600; data = Op.payload ~tag:i 700 })
      done;
      List.iter
        (fun n ->
          let s = Op.find n in
          List.iter guard s.Op.setup;
          List.iter guard s.Op.body)
        [ "fxmark"; "filebench"; "fslab" ];
      (* 0600 files land in their own coffers: those are the injection
         targets.  The canary's coffer is deliberately not among them. *)
      let victims =
        match K.list_coffers kfs with
        | Error _ -> [||]
        | Ok l ->
            Array.of_list
              (List.filter
                 (fun c ->
                   String.length c.Cf.path >= 2 && String.sub c.Cf.path 0 2 = "/v")
                 l)
      in
      if Array.length victims = 0 then
        violation "setup: no victim sub-coffers (0600 grouping broken?)";
      let healthy_victims () =
        Array.to_list victims
        |> List.filter (fun c ->
               match K.coffer_health kfs c.Cf.id with
               | K.Healthy | K.Suspect -> true
               | K.Quarantined | K.Offline -> false)
      in
      (* ---- multi-process tenant traffic ------------------------------- *)
      (* Each tenant is its own simulated process with its own FSLib: the
         only things it shares with the driver (and the other tenants) are
         the kernel and the NVM device.  Tenants hammer one shared file and
         the shared /work directory, so lease stealing and intention repair
         after a kill routinely cross process boundaries. *)
      guard
        (Op.Create
           { path = shared_path; mode = 0o644; data = Op.payload ~tag:777 100 });
      (* staging ground for cross-coffer renames: 0600 files born here live
         in their own coffers until a rename drags them into /work *)
      guard (Op.Mkdir "/xc");
      let stop_tenants = ref false in
      let tenant_tids =
        List.init n_tenants (fun i ->
            let tproc = Sim.Proc.create ~uid:0 ~gid:0 () in
            Sim.spawn_tid w ~proc:tproc
              ~name:(Printf.sprintf "chaos-tenant-%d" i)
              (fun () ->
                Obs.set_tenant i;
                let tfs = fslib_for kfs in
                let trng =
                  Sim.Rng.create (Int64.add seed (Int64.of_int (1_000 + i)))
                in
                let apply op =
                  incr ops;
                  try match Op.apply tfs op with Ok () | Error _ -> ()
                  with e ->
                    violation
                      (Printf.sprintf
                         "exception escaped the dispatcher in tenant %d: %s" i
                         (Printexc.to_string e))
                in
                (* this tenant's split/merge churn target: chmod 0600 pulls
                   it out into its own coffer (split), 0644 folds it back
                   into the directory's coffer (merge) *)
                let churn_path = Printf.sprintf "/work/churn%d" i in
                apply
                  (Op.Create
                     {
                       path = churn_path;
                       mode = 0o644;
                       data = Op.payload ~tag:(90 + i) 120;
                     });
                let chmod path mode =
                  incr ops;
                  try ignore (V.chmod tfs path mode)
                  with e ->
                    violation
                      (Printf.sprintf
                         "exception escaped the dispatcher in tenant %d: %s" i
                         (Printexc.to_string e))
                in
                let k = ref 0 in
                while not !stop_tenants do
                  apply
                    (Op.Append
                       { path = shared_path; data = Op.payload ~tag:i 48 });
                  if !k mod 4 = 3 then
                    apply
                      (Op.Create
                         {
                           path = Printf.sprintf "/work/t%d_%d" i !k;
                           mode = 0o644;
                           data = Op.payload ~tag:(i + !k) 200;
                         });
                  (* cross-coffer rename: the 0600 source owns its coffer,
                     the destination directory lives in another — the move
                     exercises split, link-destination-first, and merge
                     while the injectors are firing *)
                  if !k mod 6 = 5 then begin
                    let src = Printf.sprintf "/xc/x%d_%d" i !k in
                    apply
                      (Op.Create
                         {
                           path = src;
                           mode = 0o600;
                           data = Op.payload ~tag:((i * 13) + !k) 160;
                         });
                    apply
                      (Op.Rename
                         { src; dst = Printf.sprintf "/work/xc%d_%d" i !k })
                  end;
                  if !k mod 8 = 7 then
                    chmod churn_path (if !k mod 16 = 7 then 0o600 else 0o644);
                  incr k;
                  Sim.advance (800 + Sim.Rng.int trng 1_200)
                done))
      in
      (* ---- the four injectors ---------------------------------------- *)
      let poison_list = ref [] in
      let armed_poison = ref 0 and armed_kills = ref 0 in
      let armed_transients = ref 0 and armed_scribbles = ref 0 in
      let kills_fired = ref 0 and scribbles_blocked = ref 0 in
      let armed_proc_kills = ref 0 and proc_kills = ref 0 in
      let procs_reaped = ref 0 in
      let inject_poison ~sticky =
        match healthy_victims () with
        | [] -> ()
        | hv ->
            let c = List.nth hv (Sim.Rng.int rng (List.length hv)) in
            (* Root-inode lines (walk reads them on every access) or the
               first allocator lines of the custom page — both rewritten by
               the scoped fsck, so non-sticky poison there always heals.
               Sticky poison goes on root-inode line 0, which every access
               must read: the fault — and the failing repair — are
               guaranteed, so quarantine is actually exercised. *)
            let addr =
              if sticky then c.Cf.root_file
              else if Sim.Rng.bool rng then
                c.Cf.root_file + (64 * Sim.Rng.int rng 2)
              else c.Cf.custom + (64 * Sim.Rng.int rng 4)
            in
            D.inject_poison ~sticky dev addr;
            incr armed_poison;
            poison_list := addr :: !poison_list;
            Obs.Flight.note "inject_poison"
              [
                ("addr", string_of_int addr);
                ("sticky", if sticky then "1" else "0");
                ("coffer", string_of_int c.Cf.id);
              ];
            (* traffic that walks into the poisoned coffer *)
            guard
              (Op.Append
                 {
                   path = c.Cf.path;
                   data = Op.payload ~tag:(Sim.Rng.int rng 1000) 120;
                 });
            guard
              (Op.Pwrite { path = c.Cf.path; off = 0; data = Op.payload ~tag:7 60 })
      in
      let wcount = ref 0 in
      let fresh_work_create () =
        incr wcount;
        Op.Create
          {
            path = Printf.sprintf "/work/w%d" !wcount;
            mode = 0o644;
            data = Op.payload ~tag:!wcount (500 + Sim.Rng.int rng 3000);
          }
      in
      let inject_kill () =
        let op =
          if Sim.Rng.bool rng then
            match healthy_victims () with
            | c :: _ -> Op.Append { path = c.Cf.path; data = Op.payload ~tag:3 90 }
            | [] -> fresh_work_create ()
          else fresh_work_create ()
        in
        let finished = ref false in
        let killed0 = Sim.killed_threads () in
        let tid =
          Sim.spawn_tid w ~proc ~name:"chaos-victim" (fun () ->
              incr ops;
              (try ignore (Op.apply fs op)
               with e ->
                 violation
                   (Printf.sprintf
                      "exception escaped the dispatcher in victim thread: %s"
                      (Printexc.to_string e)));
              finished := true)
        in
        Sim.arm_kill ~tid ~after:(10 + Sim.Rng.int rng 250);
        incr armed_kills;
        Obs.Flight.note "inject_kill" [ ("tid", string_of_int tid) ];
        (* Wait for the victim to finish or die; a thread that does neither
           within the budget is wedged — itself a containment violation. *)
        let budget = ref 200_000 in
        while (not !finished) && Sim.killed_threads () = killed0 && !budget > 0 do
          decr budget;
          Sim.advance 100
        done;
        if !finished then Sim.disarm_kill ~tid
        else if Sim.killed_threads () > killed0 then begin
          incr kills_fired;
          (* The next op on the same structure must steal the dead
             thread's lease and roll its intention record. *)
          guard op
        end
        else violation "kill round: victim thread neither finished nor died"
      in
      let inject_kill_process () =
        (* A whole victim PROCESS: two threads, each with the shared
           FSLib of a fresh pid, die together mid-operation.  The dead pid
           can never fs_umount itself, so the driver reaps it, and the
           re-run of its ops from this (different) process exercises the
           cross-process steal + intention-repair path. *)
        let vproc = Sim.Proc.create ~uid:0 ~gid:0 () in
        let pid = vproc.Sim.Proc.pid in
        let op_a =
          match healthy_victims () with
          | c :: _ -> Op.Append { path = c.Cf.path; data = Op.payload ~tag:9 90 }
          | [] -> fresh_work_create ()
        in
        let op_b = fresh_work_create () in
        let spawn_victim op =
          ignore
            (Sim.spawn_tid w ~proc:vproc ~name:"chaos-proc-victim" (fun () ->
                 let vfs = fslib_for kfs in
                 incr ops;
                 try ignore (Op.apply vfs op)
                 with e ->
                   violation
                     (Printf.sprintf
                        "exception escaped the dispatcher in process-kill \
                         victim: %s"
                        (Printexc.to_string e))))
        in
        spawn_victim op_a;
        spawn_victim op_b;
        incr armed_proc_kills;
        Obs.Flight.note "inject_kill_process" [ ("pid", string_of_int pid) ];
        (* let the victims get mid-operation, then kill the whole pid *)
        Sim.advance (200 + Sim.Rng.int rng 2_000);
        let killed0 = Sim.killed_threads () in
        armed_kills :=
          !armed_kills
          + List.length (List.filter Sim.thread_alive (Sim.proc_tids pid));
        Sim.kill_process ~pid;
        let budget = ref 200_000 in
        while Sim.proc_alive pid && !budget > 0 do
          decr budget;
          Sim.advance 100
        done;
        if Sim.proc_alive pid then
          violation "process kill: victim process still alive after budget"
        else begin
          kills_fired := !kills_fired + (Sim.killed_threads () - killed0);
          if Sim.killed_threads () > killed0 then incr proc_kills;
          (match K.reap_process kfs ~pid with
          | Ok () -> incr procs_reaped
          | Error e ->
              violation
                (Printf.sprintf "reap_process(%d) failed: %s" pid
                   (E.to_string e)));
          (* survivors re-run the dead pid's ops: steal its expired
             leases, roll its intention records *)
          guard op_a;
          guard op_b
        end
      in
      let inject_transient () =
        let n = 1 + Sim.Rng.int rng 2 in
        let errno = if Sim.Rng.bool rng then E.ENOMEM else E.EAGAIN in
        K.inject_transient kfs ~errno ~n ();
        armed_transients := !armed_transients + n;
        Obs.Flight.note "inject_transient"
          [ ("n", string_of_int n); ("errno", E.to_string errno) ];
        (* allocation-heavy traffic so the armed failures actually trip *)
        for _ = 1 to 3 do
          guard (fresh_work_create ())
        done
      in
      let inject_scribble () =
        incr armed_scribbles;
        Obs.Flight.note "inject_scribble" [];
        let addr =
          if Array.length victims = 0 then 64
          else
            let c = victims.(Sim.Rng.int rng (Array.length victims)) in
            c.Cf.root_file + (8 * Sim.Rng.int rng 64)
        in
        match D.write_u64 dev addr 0xDEAD_BEEF with
        | () -> violation "scribble: stray store was NOT blocked by MPK"
        | exception Nvm.Fault { kind = Nvm.Protection; _ } ->
            incr scribbles_blocked
        | exception e ->
            violation
              (Printf.sprintf "scribble raised unexpected %s"
                 (Printexc.to_string e))
      in
      (* ---- campaign loop ---------------------------------------------- *)
      let canary_check tag =
        incr ops;
        match V.read_file fs canary_path with
        | Ok d when d = canary_data -> ()
        | Ok _ -> violation (tag ^ ": canary content changed")
        | Error e ->
            violation
              (Printf.sprintf "%s: canary unavailable (%s)" tag (E.to_string e))
        | exception e ->
            violation
              (Printf.sprintf "%s: canary read raised %s" tag
                 (Printexc.to_string e))
      in
      let tripped_total () =
        D.stat_media_faults dev + !kills_fired
        + (!armed_transients - K.pending_transients kfs)
        + !scribbles_blocked
      in
      let pool =
        Array.of_list
          (List.concat_map
             (fun n -> (Op.find n).Op.body)
             [ "fxmark"; "filebench"; "fslab" ])
      in
      let rounds = ref 0 in
      let cursor = ref 0 in
      while tripped_total () < min_faults && !rounds < max_rounds do
        let r = !rounds in
        (match r mod 4 with
        | 0 -> inject_poison ~sticky:(r = 0 || r mod 48 = 24)
        | 1 -> if r mod 8 = 1 then inject_kill_process () else inject_kill ()
        | 2 -> inject_transient ()
        | _ -> inject_scribble ());
        (* background traffic from the named workloads *)
        for _ = 1 to 3 do
          guard pool.(!cursor mod Array.length pool);
          incr cursor
        done;
        canary_check (Printf.sprintf "round %d" r);
        incr rounds
      done;
      if tripped_total () < min_faults then
        violation
          (Printf.sprintf "campaign under-injected: %d/%d faults tripped"
             (tripped_total ()) min_faults);
      (* quiesce the tenant processes so the end-of-campaign checks and the
         offline fsck run on a silent system *)
      stop_tenants := true;
      List.iter
        (fun tid ->
          let budget = ref 200_000 in
          while Sim.thread_alive tid && !budget > 0 do
            decr budget;
            Sim.advance 100
          done;
          if Sim.thread_alive tid then
            violation "tenant thread failed to quiesce")
        tenant_tids;
      (* ---- end-of-campaign invariants --------------------------------- *)
      (* a quarantined coffer is read-only: writes must be refused *)
      Array.iter
        (fun c ->
          match K.coffer_health kfs c.Cf.id with
          | K.Quarantined | K.Offline -> (
              incr ops;
              match V.append_file fs c.Cf.path (String.make 8 'x') with
              | Ok () ->
                  violation
                    (Printf.sprintf "quarantined coffer %d accepted a write"
                       c.Cf.id)
              | Error _ -> ()
              | exception e ->
                  violation
                    (Printf.sprintf "write to quarantined coffer raised %s"
                       (Printexc.to_string e)))
          | K.Healthy | K.Suspect -> ())
        victims;
      (* drain un-tripped transients so they cannot leak into the fsck *)
      let transient_residue = K.pending_transients kfs in
      K.clear_transients kfs;
      (* patrol scrub: every armed poison line must be healed already,
         cleared now, or fenced inside a quarantined fault domain *)
      let healed = ref 0 and scrubbed = ref 0 and fenced = ref 0 in
      (* the same line can be injected more than once — account per line *)
      List.iter
        (fun addr ->
          if not (D.is_poisoned dev addr) then incr healed
          else
            let fenced_off =
              match K.page_owner kfs ~page:(addr / Nvm.page_size) with
              | Ok cid -> (
                  match K.coffer_health kfs cid with
                  | K.Quarantined | K.Offline -> true
                  | K.Healthy | K.Suspect -> false)
              | Error _ -> false
            in
            if fenced_off then incr fenced
            else begin
              D.clear_poison dev addr;
              incr scrubbed
            end)
        (List.sort_uniq compare !poison_list);
      if D.poisoned_lines dev <> !fenced then
        violation
          (Printf.sprintf
             "unaccounted poisoned lines: %d on device, %d fenced in quarantine"
             (D.poisoned_lines dev) !fenced);
      (* post-campaign offline fsck: quarantined domains stay fenced; the
         rest must come back clean and stable (fixpoint) *)
      let fsck_findings = ref 0 in
      (try
         let rep1 = Zofs.Recovery.recover_all kfs in
         fsck_findings := List.length (Zofs.Recovery.findings rep1);
         let rep2 = Zofs.Recovery.recover_all kfs in
         match Zofs.Recovery.findings rep2 with
         | [] -> ()
         | l ->
             violation
               (Printf.sprintf
                  "post-campaign fsck is not a fixpoint (%d repeat findings: %s)"
                  (List.length l)
                  (String.concat "; "
                     (List.map Zofs.Recovery.finding_to_string l)))
       with e ->
         violation ("post-campaign fsck raised " ^ Printexc.to_string e));
      (* after recovery, a fresh FSLib must still see the canary intact *)
      (try
         let disp2 = Treasury.Dispatcher.create kfs in
         let ufs2 = Zofs.Ufs.create kfs in
         Treasury.Dispatcher.register_ufs disp2 (module Zofs.Ufs) ufs2;
         let fs2 = Treasury.Dispatcher.as_vfs disp2 in
         match V.read_file fs2 canary_path with
         | Ok d when d = canary_data -> ()
         | Ok _ -> violation "post-fsck: canary content changed"
         | Error e ->
             violation ("post-fsck: canary unavailable: " ^ E.to_string e)
       with e ->
         violation ("post-fsck canary check raised " ^ Printexc.to_string e));
      let snap1 = Obs.Snapshot.take () in
      let d = Obs.Snapshot.diff snap0 snap1 in
      let cv n =
        match Obs.Snapshot.counter_value d n with Some v -> v | None -> 0
      in
      let _, _, q, o = K.health_counts kfs in
      (* the core fault-domain promise: a coffer whose repair keeps failing
         must end up fenced off, not left to fault forever *)
      if cv "health.repairs_failed" > 0 && q = 0 && o = 0 then
        violation
          "containment: online repair kept failing but no coffer was ever \
           quarantined";
      out :=
        Some
          {
            c_rounds = !rounds;
            c_ops = !ops;
            c_armed_poison = !armed_poison;
            c_armed_kills = !armed_kills;
            c_armed_transients = !armed_transients;
            c_armed_scribbles = !armed_scribbles;
            c_media_faults = D.stat_media_faults dev;
            c_kills_fired = !kills_fired;
            c_armed_proc_kills = !armed_proc_kills;
            c_proc_kills = !proc_kills;
            c_procs_reaped = !procs_reaped;
            c_transients_tripped = !armed_transients - transient_residue;
            c_scribbles_blocked = !scribbles_blocked;
            c_faults_tripped =
              D.stat_media_faults dev + !kills_fired
              + (!armed_transients - transient_residue)
              + !scribbles_blocked;
            c_poison_healed = !healed;
            c_poison_scrubbed = !scrubbed;
            c_poison_fenced = !fenced;
            c_transient_residue = transient_residue;
            c_repairs_ok = cv "health.repairs_ok";
            c_repairs_failed = cv "health.repairs_failed";
            c_quarantined = q;
            c_offline = o;
            c_lease_steals = cv "lease.steals";
            c_intent_repairs = cv "intent.repairs";
            c_graceful_errors = cv "fault.graceful_errors";
            c_fsck_findings = !fsck_findings;
            c_violations = List.rev !violations;
            c_flight_dumps =
              (let all = Obs.Flight.dump_paths () in
               List.filteri (fun i _ -> i >= dumps0) all);
          });
  (try Sim.run w
   with Sim.Deadlock msg -> failwith ("chaos: simulation deadlocked: " ^ msg));
  match !out with
  | Some r -> r
  | None -> failwith "chaos: campaign driver died before reporting"

(* Negative self-check: with quarantine disabled, the sticky-poisoned
   victim's repairs keep failing but the coffer is never fenced — the
   campaign must report that specific containment violation.  Returns true
   when the gate caught the injected bug. *)
let is_containment v =
  String.length v >= 11 && String.sub v 0 11 = "containment"

let negative_campaign ?(seed = 23L) ?(pages = 8192) ?flight_dir () =
  run ~seed ~pages ~min_faults:40 ~max_rounds:80 ~quarantine:false ?flight_dir ()

let caught rep = List.exists is_containment rep.c_violations

let negative_selfcheck ?seed ?pages () = caught (negative_campaign ?seed ?pages ())
