(* Crash-consistency and offline-recovery tests (paper §3.5, §5.3, §6.5).

   ZoFS is synchronous: every completed operation must survive a crash —
   even one that randomly drops any subset of unflushed cache lines. *)

open Testkit
module V = Treasury.Vfs
module K = Treasury.Kernfs
module E = Treasury.Errno
module D = Nvm.Device

let remount w =
  let kfs = K.mount w.dev w.mpk in
  { w with kfs }

let test_completed_writes_survive_crash () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/a" ~mode:0o777 "alpha");
      ok_or_fail (V.mkdir fs "/dir" 0o777);
      ok_or_fail (V.write_file fs "/dir/b" ~mode:0o777 (String.make 5000 'b')));
  D.crash w.dev;
  (* random subset of pending lines persisted *)
  let w = remount w in
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "a" "alpha" (ok_or_fail (V.read_file fs "/a"));
      Alcotest.(check string) "dir/b" (String.make 5000 'b')
        (ok_or_fail (V.read_file fs "/dir/b")))

let test_completed_unlink_survives_crash () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/gone" ~mode:0o777 "x");
      ok_or_fail (V.unlink fs "/gone"));
  D.crash ~policy:`Drop_all w.dev;
  let w = remount w in
  in_proc ~uid:0 w (fun fs -> expect_err E.ENOENT (V.stat fs "/gone"))

let test_recover_all_preserves_files () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/data" 0o777);
      for i = 1 to 20 do
        ok_or_fail
          (V.write_file fs (Printf.sprintf "/data/f%d" i) ~mode:0o777
             (Printf.sprintf "content-%d" i))
      done;
      (* a private file in its own coffer too *)
      ok_or_fail (V.write_file fs "/data/secret" ~mode:0o600 "top"));
  D.crash w.dev;
  let w = remount w in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "scanned >= 2 coffers" true
    (report.Zofs.Recovery.coffers_scanned >= 2);
  in_proc ~uid:0 w (fun fs ->
      for i = 1 to 20 do
        Alcotest.(check string)
          (Printf.sprintf "f%d" i)
          (Printf.sprintf "content-%d" i)
          (ok_or_fail (V.read_file fs (Printf.sprintf "/data/f%d" i)))
      done;
      Alcotest.(check string) "secret" "top"
        (ok_or_fail (V.read_file fs "/data/secret")))

let test_recovery_reclaims_free_list_pages () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      (* Create and delete files: deleted pages sit on per-thread free
         lists, still assigned to the coffer. *)
      for i = 1 to 30 do
        ok_or_fail
          (V.write_file fs (Printf.sprintf "/churn%d" i) ~mode:0o777
             (String.make 8192 'x'))
      done;
      for i = 1 to 30 do
        ok_or_fail (V.unlink fs (Printf.sprintf "/churn%d" i))
      done);
  let free_before = Sim.run_thread (fun () -> K.free_pages w.kfs) in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  let free_after = Sim.run_thread (fun () -> K.free_pages w.kfs) in
  Alcotest.(check bool) "pages reclaimed" true
    (report.Zofs.Recovery.pages_reclaimed > 0);
  Alcotest.(check bool) "kernel free pool grew" true (free_after > free_before)

let test_recovery_drops_corrupted_dentry () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.write_file fs "/corrupt" ~mode:0o777 "dead"));
  (* Corrupt /corrupt's inode magic from kernel mode (simulating a stray
     write that slipped through). *)
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = K.root_coffer w.kfs in
              let info =
                match Treasury.Coffer.read w.dev ~id:root with
                | Some i -> i
                | None -> Alcotest.fail "no root"
              in
              let dir_ino = info.Treasury.Coffer.root_file in
              match Zofs.Dir.lookup w.dev ~ino:dir_ino "corrupt" with
              | Some de ->
                  Nvm.Device.write_u32 w.dev de.Zofs.Dir.de_inode 0xDEAD;
                  Nvm.Device.persist_all w.dev
              | None -> Alcotest.fail "dentry missing")));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "dropped a dentry" true
    (report.Zofs.Recovery.dentries_dropped >= 1);
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "intact file survives" "keep"
        (ok_or_fail (V.read_file fs "/keep"));
      expect_err E.ENOENT (V.stat fs "/corrupt"))

let test_recovery_validates_cross_refs () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/victim" ~mode:0o600 "private");
      ok_or_fail (V.write_file fs "/decoy" ~mode:0o640 "decoy"));
  (* Point /decoy's cross-coffer dentry at /victim's coffer: a manipulated
     cross-coffer reference (wrong path→cid binding). *)
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = K.root_coffer w.kfs in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:root) in
              let dir_ino = info.Treasury.Coffer.root_file in
              let victim_cid =
                match K.coffer_find w.kfs "/victim" with
                | Ok c -> c
                | Error _ -> Alcotest.fail "victim coffer"
              in
              match Zofs.Dir.lookup w.dev ~ino:dir_ino "decoy" with
              | Some de ->
                  Nvm.Device.write_u64 w.dev
                    (de.Zofs.Dir.de_addr + Zofs.Layout.d_coffer)
                    victim_cid;
                  Nvm.Device.persist_all w.dev
              | None -> Alcotest.fail "decoy dentry")));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "cross refs checked" true
    (report.Zofs.Recovery.cross_refs_checked >= 1);
  (* The decoy coffer still exists in the trusted path map, so the
     manipulated dentry is repaired, not dropped. *)
  Alcotest.(check bool) "bad ref repaired" true
    (report.Zofs.Recovery.cross_refs_repaired >= 1);
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "decoy restored" "decoy"
        (ok_or_fail (V.read_file fs "/decoy"));
      Alcotest.(check string) "victim untouched" "private"
        (ok_or_fail (V.read_file fs "/victim")))

let test_recovery_drops_dangling_cross_ref () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/doomed" ~mode:0o640 "x"));
  (* Delete the coffer behind /doomed directly in the kernel, leaving the
     parent dentry dangling. *)
  Sim.run_thread (fun () ->
      ignore (K.fs_mount w.kfs);
      let cid =
        match K.coffer_find w.kfs "/doomed" with
        | Ok c -> c
        | Error _ -> Alcotest.fail "doomed coffer"
      in
      (match K.coffer_delete w.kfs cid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "delete: %s" (E.to_string e));
      ignore (K.fs_umount w.kfs));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "dangling ref dropped" true
    (report.Zofs.Recovery.cross_refs_dropped >= 1);
  in_proc ~uid:0 w (fun fs -> expect_err E.ENOENT (V.stat fs "/doomed"))

let test_recovery_reinitializes_corrupt_root_inode () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/solo" ~mode:0o600 "alone"));
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let cid =
                match K.coffer_find w.kfs "/solo" with
                | Ok c -> c
                | Error _ -> Alcotest.fail "solo coffer"
              in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:cid) in
              Nvm.Device.write_u32 w.dev info.Treasury.Coffer.root_file 0;
              Nvm.Device.persist_all w.dev)));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "reinitialized" true
    (report.Zofs.Recovery.inodes_reinitialized >= 1)

(* Crash between inode publish and dentry insert: create() persists the new
   inode (and its data pages) before the dentry that names it.  A crash in
   that window leaves a fully-formed but unreachable inode inside the
   coffer.  Recovery must reclaim its pages and leave the rest intact.  We
   build the torn state directly: create the file, then durably erase only
   its dentry. *)
let test_recovery_orphan_inode_without_dentry () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.write_file fs "/limbo" ~mode:0o777 (String.make 9000 'l')));
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = K.root_coffer w.kfs in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:root) in
              let dir_ino = info.Treasury.Coffer.root_file in
              (match Zofs.Dir.remove w.dev ~ino:dir_ino "limbo" with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "limbo dentry missing");
              Nvm.Device.persist_all w.dev)));
  D.crash ~policy:`Drop_all w.dev;
  let w = remount w in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "orphan inode pages reclaimed" true
    (report.Zofs.Recovery.pages_reclaimed >= 1);
  let report2 = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report2));
  in_proc ~uid:0 w (fun fs ->
      expect_err E.ENOENT (V.stat fs "/limbo");
      Alcotest.(check string) "bystander intact" "keep"
        (ok_or_fail (V.read_file fs "/keep")))

(* Torn coffer root page: a multi-line update to the root inode page is
   interrupted by a `Drop_all crash after only the first line was fenced.
   The durable page mixes old and new lines — here the magic is destroyed
   while a later line's update is lost entirely.  Recovery must
   reinitialize the root inode and reach a fixpoint on the second run. *)
let test_recovery_torn_coffer_root_page () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.write_file fs "/solo" ~mode:0o600 "alone"));
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let cid =
                match K.coffer_find w.kfs "/solo" with
                | Ok c -> c
                | Error _ -> Alcotest.fail "solo coffer"
              in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:cid) in
              let root = info.Treasury.Coffer.root_file in
              (* first line reaches NVM... *)
              Nvm.Device.write_u32 w.dev root 0;
              Nvm.Device.persist_range w.dev root 4;
              (* ...the rest of the update is still in the cache when power
                 fails *)
              Nvm.Device.write_u64 w.dev (root + 64) 0xDEADBEEF)));
  D.crash ~policy:`Drop_all w.dev;
  let w = remount w in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "root inode reinitialized" true
    (report.Zofs.Recovery.inodes_reinitialized >= 1);
  let report2 = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report2));
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "bystander intact" "keep"
        (ok_or_fail (V.read_file fs "/keep"));
      ignore (ok_or_fail (V.readdir fs "/")))

(* ---- ownership, commit-on-success and the directory walk ---------------- *)

module Dir = Zofs.Dir
module L = Zofs.Layout

let root_dir_ino w =
  let root = K.root_coffer w.kfs in
  (Option.get (Treasury.Coffer.read w.dev ~id:root)).Treasury.Coffer.root_file

(* Read the device as the kernel would, outside any coffer mapping. *)
let as_kernel w f = Sim.run_thread (fun () -> Mpk.with_kernel w.mpk f)

let child_ino w ~dir name =
  match Dir.lookup w.dev ~ino:dir name with
  | Some de -> de.Dir.de_inode
  | None -> Alcotest.failf "no dentry %s" name

(* [n] names whose hashes agree on the bits in [mask]: 511 puts them in one
   second-level page, 0x1FFFF also in one bucket of it.  FNV-1a over
   four-character names, hashed one character at a time. *)
let colliding_names ~mask n =
  let alpha =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
  in
  let step h c = (h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF in
  let found = ref [] and count = ref 0 and target = ref (-1) in
  (try
     String.iter
       (fun a ->
         let ha = step 0x811C9DC5 a in
         String.iter
           (fun b ->
             let hb = step ha b in
             String.iter
               (fun c ->
                 let hc = step hb c in
                 String.iter
                   (fun d ->
                     let h = step hc d land mask in
                     if !target < 0 then target := h;
                     if h = !target then begin
                       found := Printf.sprintf "%c%c%c%c" a b c d :: !found;
                       incr count;
                       if !count = n then raise Exit
                     end)
                   alpha)
               alpha)
           alpha)
       alpha
   with Exit -> ());
  let names = List.rev !found in
  Alcotest.(check int) "enough colliding names" n (List.length names);
  List.iter
    (fun name ->
      Alcotest.(check int) ("hash bits of " ^ name) !target
        (L.dir_hash name land mask))
    names;
  names

(* A media fault in an inline dentry of a subdirectory drops the
   subdirectory; everything recovery had collected under it — its inode,
   its index pages, the children it had already scanned — goes back to
   KernFS instead of staying owned by the coffer.  The cross-coffer
   dentry it had already read goes too: the private file's coffer, left
   without a parent, is deleted rather than kept registered. *)
let test_recovery_releases_dropped_directory () =
  let w = make_world () in
  let names = colliding_names ~mask:(L.l1_entries - 1) 3 in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.mkdir fs "/sub" 0o777);
      List.iteri
        (fun i n ->
          ok_or_fail
            (V.write_file fs ("/sub/" ^ n)
               ~mode:(if i = 0 then 0o600 else 0o777)
               (String.make 5000 'd')))
        names);
  let pages =
    as_kernel w (fun () ->
        let sub = child_ino w ~dir:(root_dir_ino w) "sub" in
        let children = List.map (child_ino w ~dir:sub) names in
        (* the three dentries sit in inline slots 0, 1 and 2 of one
           second-level page; poison the line of slot 2 *)
        let last = Option.get (Dir.lookup w.dev ~ino:sub (List.nth names 2)) in
        Alcotest.(check int) "inline slot 2"
          (Dir.inline_slot (Dir.l2_page w.dev (Dir.l1_page w.dev ~ino:sub)
                              (L.dir_hash (List.nth names 2))) 2)
          last.Dir.de_addr;
        Nvm.Device.inject_poison w.dev (last.Dir.de_addr + L.d_valid);
        (sub :: Dir.structure_pages w.dev ~ino:sub)
        @ List.concat_map
            (fun ino -> ino :: Zofs.File.data_pages w.dev ~ino)
            children)
  in
  let root = K.root_coffer w.kfs in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "sub dropped" true
    (List.mem
       (Zofs.Recovery.Dropped_dentry { coffer = root; path = "/sub" })
       (Zofs.Recovery.findings report));
  Sim.run_thread (fun () ->
      List.iter
        (fun addr ->
          match K.page_owner w.kfs ~page:(addr / L.page_size) with
          | Ok owner when owner = root ->
              Alcotest.failf "page 0x%x of the dropped /sub still owned" addr
          | Ok _ | Error _ -> ())
        pages);
  Alcotest.(check bool) "orphaned private coffer deleted" true
    (Sim.run_thread (fun () ->
         Result.is_error (K.coffer_find w.kfs ("/sub/" ^ List.hd names))));
  in_proc ~uid:0 w (fun fs ->
      expect_err E.ENOENT (V.stat fs "/sub");
      Alcotest.(check string) "bystander intact" "keep"
        (ok_or_fail (V.read_file fs "/keep")))

(* Recovery asks KernFS nothing per page: a one-coffer tree of 400 files
   costs the same kernel crossings as one of 20. *)
let recovery_crossings ~dirs ~files =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      for d = 1 to dirs do
        ok_or_fail (V.mkdir fs (Printf.sprintf "/t%d" d) 0o777);
        for f = 1 to files do
          ok_or_fail
            (V.write_file fs (Printf.sprintf "/t%d/f%d" d f) ~mode:0o777 "x")
        done
      done);
  D.crash w.dev;
  let w = remount w in
  Sim.run_thread (fun () ->
      let gate = K.gate w.kfs in
      let c0 = Treasury.Gate.syscall_count gate in
      let report = Zofs.Recovery.recover_all w.kfs in
      Alcotest.(check int) "one coffer" 1 report.Zofs.Recovery.coffers_scanned;
      Treasury.Gate.syscall_count gate - c0)

let test_recovery_crossings_independent_of_size () =
  let small = recovery_crossings ~dirs:2 ~files:10 in
  let large = recovery_crossings ~dirs:20 ~files:20 in
  Alcotest.(check int) "crossings for 400 files = for 20" small large

(* Reference copies of the two traversals [Dir.walk] replaced: the
   index-page census and the dentry iteration, each its own loop. *)
let ref_structure_pages dev ~ino =
  let pages = ref [] in
  let l1 = Dir.l1_page dev ~ino in
  if l1 <> 0 then begin
    pages := [ l1 ];
    for l1i = 0 to L.l1_entries - 1 do
      let l2 = Nvm.Device.read_u64 dev (l1 + (l1i * 8)) in
      if l2 <> 0 then begin
        pages := l2 :: !pages;
        for b = 0 to L.l2_buckets - 1 do
          let rec chase page =
            if page <> 0 then begin
              pages := page :: !pages;
              chase (Dir.chain_next dev page)
            end
          in
          chase (Nvm.Device.read_u64 dev (l2 + L.l2_bucket_base + (b * 8)))
        done
      end
    done
  end;
  !pages

let ref_iter dev ~ino f =
  let l1 = Dir.l1_page dev ~ino in
  if l1 <> 0 then
    for l1i = 0 to L.l1_entries - 1 do
      let l2 = Nvm.Device.read_u64 dev (l1 + (l1i * 8)) in
      if l2 <> 0 then begin
        for i = 0 to L.l2_inline_dentries - 1 do
          let a = Dir.inline_slot l2 i in
          if Dir.dentry_valid dev a then
            match Dir.read_dentry dev a with Some de -> f de | None -> ()
        done;
        for b = 0 to L.l2_buckets - 1 do
          let rec chase page =
            if page <> 0 then begin
              for i = 1 to L.chain_dentries do
                let a = Dir.chain_slot page i in
                if Dir.dentry_valid dev a then
                  match Dir.read_dentry dev a with Some de -> f de | None -> ()
              done;
              chase (Dir.chain_next dev page)
            end
          in
          chase (Nvm.Device.read_u64 dev (l2 + L.l2_bucket_base + (b * 8)))
        done
      end
    done

let test_walk_matches_reference () =
  let w = make_world () in
  (* 48 names in one bucket: 16 inline, a full 31-dentry chain page and a
     second chain page *)
  let chained = colliding_names ~mask:0x1FFFF 48 in
  let spread = List.init 30 (Printf.sprintf "g%d") in
  let removed =
    List.filteri (fun i _ -> i mod 3 = 0) chained
    @ [ "g7"; List.nth chained 47 ]
  in
  in_proc ~uid:0 w (fun fs ->
      let fill dir names =
        ok_or_fail (V.mkdir fs dir 0o777);
        List.iter
          (fun n -> ok_or_fail (V.write_file fs (dir ^ "/" ^ n) ~mode:0o777 n))
          names
      in
      ok_or_fail (V.mkdir fs "/empty" 0o777);
      fill "/inline" [ "a"; "b"; "c"; "d"; "e" ];
      fill "/chains" (chained @ spread);
      fill "/holes" (chained @ spread);
      List.iter (fun n -> ok_or_fail (V.unlink fs ("/holes/" ^ n))) removed);
  as_kernel w (fun () ->
      let root = root_dir_ino w in
      let chains = child_ino w ~dir:root "chains" in
      let h = L.dir_hash (List.hd chained) in
      let l2 = Dir.l2_page w.dev (Dir.l1_page w.dev ~ino:chains) h in
      let head = Nvm.Device.read_u64 w.dev (Dir.bucket_addr l2 h) in
      Alcotest.(check bool) "two-page chain" true
        (head <> 0 && Dir.chain_next w.dev head <> 0);
      List.iter
        (fun (name, ino, expected) ->
          let pages = ref [] and dentries = ref [] in
          Dir.walk w.dev ~ino
            ~page:(fun p -> pages := p :: !pages)
            ~dentry:(fun de -> dentries := de :: !dentries);
          let reference = ref [] in
          ref_iter w.dev ~ino (fun de -> reference := de :: !reference);
          let sorted l = List.sort compare l in
          Alcotest.(check (list int)) (name ^ ": structure_pages")
            (ref_structure_pages w.dev ~ino) (Dir.structure_pages w.dev ~ino);
          Alcotest.(check (list int)) (name ^ ": walk pages")
            (ref_structure_pages w.dev ~ino) !pages;
          Alcotest.(check bool) (name ^ ": walk dentries") true
            (sorted !dentries = sorted !reference);
          Alcotest.(check int) (name ^ ": dentry count") expected
            (List.length !dentries))
        [
          ("/", root, 4);
          ("/empty", child_ino w ~dir:root "empty", 0);
          ("/inline", child_ino w ~dir:root "inline", 5);
          ("/chains", chains, 78);
          ("/holes", child_ino w ~dir:root "holes", 78 - List.length removed);
        ])

let qcheck_crash_recovery_preserves_completed_ops =
  QCheck.Test.make
    ~name:"completed ops survive random crashes + recovery" ~count:15
    QCheck.(
      pair int64
        (list_of_size (Gen.int_range 1 25)
           (triple (int_range 0 7) bool (string_of_size (Gen.int_range 0 200)))))
    (fun (seed, ops) ->
      let w = make_world () in
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      in_proc ~uid:0 w (fun fs ->
          List.iter
            (fun (n, create, data) ->
              let path = Printf.sprintf "/file%d" n in
              if create then begin
                match V.write_file fs path ~mode:0o777 data with
                | Ok () -> Hashtbl.replace model path data
                | Error _ -> ()
              end
              else begin
                (match V.unlink fs path with Ok () | Error _ -> ());
                Hashtbl.remove model path
              end)
            ops);
      (* Crash with a seed-dependent subset of pending lines persisted. *)
      ignore seed;
      D.crash w.dev;
      let kfs = K.mount w.dev w.mpk in
      let w = { w with kfs } in
      ignore (Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs));
      in_proc ~uid:0 w (fun fs ->
          Hashtbl.fold
            (fun path data ok -> ok && V.read_file fs path = Ok data)
            model true))

let () =
  Alcotest.run "recovery"
    [
      ( "crash-consistency",
        [
          Alcotest.test_case "completed writes survive" `Quick
            test_completed_writes_survive_crash;
          Alcotest.test_case "completed unlink survives" `Quick
            test_completed_unlink_survives_crash;
          QCheck_alcotest.to_alcotest
            qcheck_crash_recovery_preserves_completed_ops;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "preserves files" `Quick
            test_recover_all_preserves_files;
          Alcotest.test_case "reclaims free-list pages" `Quick
            test_recovery_reclaims_free_list_pages;
          Alcotest.test_case "drops corrupted dentry" `Quick
            test_recovery_drops_corrupted_dentry;
          Alcotest.test_case "validates cross refs" `Quick
            test_recovery_validates_cross_refs;
          Alcotest.test_case "drops dangling cross ref" `Quick
            test_recovery_drops_dangling_cross_ref;
          Alcotest.test_case "reinitializes root inode" `Quick
            test_recovery_reinitializes_corrupt_root_inode;
          Alcotest.test_case "reclaims orphan inode (publish/dentry window)"
            `Quick test_recovery_orphan_inode_without_dentry;
          Alcotest.test_case "repairs torn coffer root page" `Quick
            test_recovery_torn_coffer_root_page;
          Alcotest.test_case "releases a dropped directory's pages" `Quick
            test_recovery_releases_dropped_directory;
          Alcotest.test_case "crossings independent of tree size" `Quick
            test_recovery_crossings_independent_of_size;
        ] );
      ( "dir walk",
        [
          Alcotest.test_case "matches the reference traversals" `Quick
            test_walk_matches_reference;
        ] );
    ]
