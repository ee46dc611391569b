(* tenants-64p: sharing and admission, as an open loop.  64 Sim.Proc
   tenants, each with its own FSLib, behind one lib/serve frontend.
   Seeded Poisson arrivals at fixed offered-rate steps, from well below
   capacity to above it; requests in equal shares: create a 1 KB file in
   the shared /sdir (and stat it back), stat an own file, unlink the
   oldest own file, append 1 KB to the shared /slog.  Each tenant serves
   its arrivals in order on one client thread; latency is timed from the
   moment a request was due, so a stall also delays the requests queued
   behind it.  Each tenant's first coffer mappings belong to set-up. *)

open Common
module Serve = Serving.Serve

let ntenants = 64
let own_initial = 4
let rec_len = 1024

(* Offered-rate steps (kops per simulated second) and expected arrivals per
   step.  The reference step, where end-to-end latency is read, gets enough
   arrivals for a p99.9 with ten samples beyond it. *)
let steps = [| 25.0; 100.0; 200.0; 400.0; 800.0 |]
let ref_step = 1
let arrivals k = if k = ref_step then 12_800 else 3_200

(* Arrival window of step k, ns: its expected arrivals at its rate. *)
let window_ns k = int_of_float (float_of_int (arrivals k) *. 1e6 /. steps.(k))
let limit_ns = 100_000

(* Every request carries an end-to-end budget of 200x the latency limit:
   far beyond any healthy request, it only ends one that would otherwise
   wait forever (it then counts as failed). *)
let deadline_ns = 20_000_000
let gap_ns = 2_000_000
let samples_per_step = 9

type req = Create | Stat_own | Unlink_oldest | Append

let kind_name = function
  | Create -> "create"
  | Stat_own -> "stat-own"
  | Unlink_oldest -> "unlink-oldest"
  | Append -> "append"

type arrival = { due : int; (* offset from the phase start *) step : int; kind : req }

(* Per tenant: Poisson arrivals over each step's fixed window (the step's
   expected arrival count at its offered rate), with request kinds shuffled
   in blocks of four so each kind gets a quarter.  Returns the arrivals and
   the step start offsets (ns). *)
let schedule ~seed =
  let rng = Sim.Rng.create (Int64.of_int ((seed * 15485863) + 7)) in
  let per = Array.make ntenants [] in
  let kinds = [| Create; Stat_own; Unlink_oldest; Append |] in
  let block = Array.make ntenants [||] in
  let pos = Array.make ntenants 4 in
  let next_kind t =
    if pos.(t) = 4 then begin
      let b = Array.copy kinds in
      Sim.Rng.shuffle rng b;
      block.(t) <- b;
      pos.(t) <- 0
    end;
    pos.(t) <- pos.(t) + 1;
    block.(t).(pos.(t) - 1)
  in
  let starts = Array.make (Array.length steps + 1) 0 in
  for k = 0 to Array.length steps - 1 do
    let mean_gap = float_of_int ntenants *. 1e6 /. steps.(k) in
    let stop = starts.(k) + window_ns k in
    for t = 0 to ntenants - 1 do
      let at = ref (float_of_int starts.(k)) in
      let more = ref true in
      while !more do
        let u = Sim.Rng.float rng 1.0 in
        at := !at -. (mean_gap *. log (1.0 -. u));
        let due = int_of_float !at in
        if due < stop then
          per.(t) <- { due; step = k; kind = next_kind t } :: per.(t)
        else more := false
      done
    done;
    starts.(k + 1) <- stop + gap_ns
  done;
  (Array.map (fun l -> Array.of_list (List.rev l)) per, starts)

(* What the model expects of one tenant. *)
type tenant = {
  own : string Queue.t;  (* acknowledged files, oldest first *)
  mutable unlinked : string list;
  mutable created : int;
}

let own_path t n = Printf.sprintf "/sdir/t%02d_%06d" t n

(* Re-check every acknowledged create, unlink and append; returns the
   number of failed checks per kind of check. *)
let verify fs tenants appended =
  let own_bad = ref 0 and unlinked_bad = ref 0 and slog_bad = ref 0 in
  let buf = ref (Bytes.create (4 * rec_len)) in
  Array.iter
    (fun tn ->
      Queue.iter
        (fun p ->
          match read_all fs p buf with
          | Ok n
            when n = rec_len
                 && segment_ok !buf ~off:0 ~stamp:(Hashtbl.hash p) ~len:rec_len
            ->
              ()
          | Ok _ | Error _ -> incr own_bad)
        tn.own;
      List.iter
        (fun p -> if V.stat fs p <> Error E.ENOENT then incr unlinked_bad)
        tn.unlinked)
    tenants;
  (* /slog holds every acknowledged append exactly once, in any order:
     each 1 KB record that is not an intact, acknowledged, first-seen
     append is a failure, and so is each acknowledged append not found *)
  let seen = Hashtbl.create 1024 in
  (match read_all fs "/slog" buf with
  | Error _ -> slog_bad := Hashtbl.length appended
  | Ok n ->
      for j = 0 to (n / rec_len) - 1 do
        let off = j * rec_len in
        let stamp = Int64.to_int (Bytes.get_int64_le !buf off) in
        if
          Hashtbl.mem appended stamp
          && (not (Hashtbl.mem seen stamp))
          && segment_ok !buf ~off ~stamp ~len:rec_len
        then Hashtbl.replace seen stamp ()
        else incr slog_bad
      done;
      if n mod rec_len <> 0 then incr slog_bad;
      slog_bad := !slog_bad + (Hashtbl.length appended - Hashtbl.length seen));
  [
    ("own file missing or wrong", !own_bad);
    ("unlinked file present", !unlinked_bad);
    ("/slog record missing or wrong", !slog_bad);
  ]

let total_bad = List.fold_left (fun a (_, n) -> a + n) 0

let run ~seed ~plant =
  let world = Sim.create ~seed:(Int64.of_int seed) () in
  let l = ledger () in
  let h0 = Unix.gettimeofday () in
  let setup_s = ref 0.0 in
  let inst_r = ref None in
  let sched, starts = schedule ~seed in
  let nsteps = Array.length steps in
  let total = Array.fold_left (fun a s -> a + Array.length s) 0 sched in
  let tenants =
    Array.init ntenants (fun _ ->
        { own = Queue.create (); unlinked = []; created = 0 })
  in
  let appended = Hashtbl.create 4096 in
  let failures = Hashtbl.create 8 in
  let note_failure why =
    Hashtbl.replace failures why
      (1 + Option.value ~default:0 (Hashtbl.find_opt failures why))
  in
  let lat = Array.make nsteps [] and fails = Array.make nsteps 0 in
  let done_ = Array.make nsteps 0 and last_done = Array.make nsteps 0 in
  let backlog = Array.make_matrix nsteps samples_per_step 0 in
  let failed = ref 0 and user_w = ref 0 in
  let ready = ref 0 and start = ref (-1) and finished = ref 0 in
  let layers = ref [] and amp_pages = ref 0 in
  (* due offsets of each step, sorted, for the backlog sampler *)
  let dues =
    let per = Array.make nsteps [] in
    Array.iter (Array.iter (fun r -> per.(r.step) <- r.due :: per.(r.step))) sched;
    Array.map Stats.sorted_of_list per
  in
  let step_of k =
    {
      Stats.rate_kops = steps.(k);
      lat = Stats.sorted_of_list lat.(k);
      failed = fails.(k);
      backlog = backlog.(k);
      slack = max 16 (arrivals k / 50);
    }
  in
  let due_by k t =
    (* arrivals of step k due at or before offset t *)
    let a = dues.(k) in
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) <= t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Sim.spawn world ~proc:(root_proc ()) ~name:"tenants-setup" (fun () ->
      let inst =
        Probe.span "fslab.make" (fun () -> Fslab.make ~pages:65536 Fslab.Zofs)
      in
      inst_r := Some inst;
      let kfs = Option.get inst.Fslab.kernfs in
      Probe.attach_hw inst.Fslab.device (K.mpk kfs);
      let fs = Probe.fs inst.Fslab.fs in
      ignore (V.mkdir fs "/sdir" 0o755);
      ignore (V.write_file fs "/slog" "");
      let srv = Serve.create ~max_inflight:8 () in
      for t = 0 to ntenants - 1 do
        Serve.add_tenant srv ~id:t ~rate_per_ms:100_000 ~burst:4096 ()
      done;
      for t = 0 to ntenants - 1 do
        let tn = tenants.(t) in
        Sim.spawn world ~proc:(root_proc ()) ~name:(Printf.sprintf "tenant-%d" t)
          (fun () ->
            Obs.set_tenant t;
            let fs = Probe.fs (Probe.span "fslab.fslib" (fun () -> Fslab.zofs_fslib kfs)) in
            let create () =
              tn.created <- tn.created + 1;
              let p = own_path t tn.created in
              let data = payload ~stamp:(Hashtbl.hash p) ~len:rec_len in
              match V.openf fs p [ Ft.O_CREAT; Ft.O_WRONLY; Ft.O_EXCL ] 0o644 with
              | Error e -> (Error e, true)
              | Ok fd ->
                  let w = V.write fs fd data in
                  let c = V.close fs fd in
                  match (w, c) with
                  | Error e, _ | _, Error e -> (Error e, true)
                  | Ok n, _ when n <> rec_len -> (Error E.EIO, true)
                  | Ok _, Ok () -> begin
                    (* the create is acknowledged: it must be visible *)
                    match V.stat fs p with
                    | Ok st when st.Ft.st_size = rec_len ->
                        Queue.push p tn.own;
                        (Ok (), true)
                    | Ok _ | Error _ -> (Ok (), false)
                  end
            in
            for _ = 1 to own_initial do
              ignore (create ())
            done;
            ignore (V.stat fs "/slog");
            incr ready;
            while !start < 0 do
              Sim.advance 10_000
            done;
            let appends = ref 0 in
            Array.iteri
              (fun i a ->
                Sim.sleep_until (!start + a.due);
                Probe.request ((t * 1_000_000) + i + 1);
                let verified = ref true in
                let body () =
                  match a.kind with
                  | Create ->
                      let r, v = create () in
                      if r = Ok () then user_w := !user_w + rec_len;
                      verified := v;
                      r
                  | Stat_own when Queue.is_empty tn.own -> Error E.ENOENT
                  | Unlink_oldest when Queue.is_empty tn.own -> Error E.ENOENT
                  | Stat_own -> (
                      let p = Queue.peek tn.own in
                      match V.stat fs p with
                      | Ok st ->
                          verified := st.Ft.st_size = rec_len;
                          Ok ()
                      | Error e -> Error e)
                  | Unlink_oldest ->
                      let p = Queue.pop tn.own in
                      let r = V.unlink fs p in
                      if r = Ok () then tn.unlinked <- p :: tn.unlinked;
                      r
                  | Append -> (
                      incr appends;
                      let stamp = (t * 1_000_000) + !appends in
                      match V.openf fs "/slog" [ Ft.O_WRONLY; Ft.O_APPEND ] 0 with
                      | Error e -> Error e
                      | Ok fd ->
                          let w = V.write fs fd (payload ~stamp ~len:rec_len) in
                          ignore (V.close fs fd);
                          match w with
                          | Ok n when n = rec_len ->
                              Hashtbl.replace appended stamp ();
                              user_w := !user_w + rec_len;
                              Ok ()
                          | Ok _ -> Error E.EIO
                          | Error e -> Error e)
                in
                let outcome =
                  Probe.span "serve.submit" (fun () ->
                      Serve.submit srv ~tenant_id:t ~deadline_ns
                        ~write:(a.kind <> Stat_own) body)
                in
                let k = a.step in
                (match outcome with
                | Serve.Done (Ok ()) when !verified ->
                    lat.(k) <- (Sim.now () - (!start + a.due)) :: lat.(k)
                | o ->
                    let why =
                      match o with
                      | Serve.Done (Ok ()) -> "lost"
                      | Serve.Done (Error e) -> E.to_string e
                      | Serve.Shed _ -> "shed"
                      | Serve.Timed_out _ -> "timed-out"
                    in
                    note_failure (Printf.sprintf "%s %s" (kind_name a.kind) why);
                    fails.(k) <- fails.(k) + 1;
                    incr failed);
                done_.(k) <- done_.(k) + 1;
                last_done.(k) <- max last_done.(k) (Sim.now () - !start))
              sched.(t);
            incr finished)
      done;
      while !ready < ntenants do
        Sim.advance 10_000
      done;
      setup_s := host_since h0;
      begin_phase l inst;
      start := Sim.now () + 10_000;
      (* sample each step's backlog (due - completed) across its window *)
      for k = 0 to nsteps - 1 do
        for j = 0 to samples_per_step - 1 do
          let at = starts.(k) + (window_ns k * (j + 1) / samples_per_step) in
          Sim.sleep_until (!start + at);
          backlog.(k).(j) <- due_by k at - done_.(k)
        done
      done;
      while !finished < ntenants do
        Sim.advance 50_000
      done;
      end_phase l;
      amp_pages := allocated_pages inst;
      let st = Serve.tenant_stats srv in
      let sum f = List.fold_left (fun a s -> a + f s) 0 st in
      let submitted = sum (fun s -> s.Serve.ts_submitted) in
      (* 0 when more than 1% of the step's requests failed *)
      let per_step_p99 =
        List.init nsteps (fun k ->
            m (Printf.sprintf "serve.step%d.p99_ns" k) "ns"
              (match Stats.step_p99 (step_of k) with
               | Some p -> float_of_int p
               | None -> 0.0))
      in
      layers :=
        layer_metrics l inst ~ops:total ~user_written:!user_w ~user_read:0
        @ [
            m "serve.queue_wait_ns_per_req" "ns"
              (Stats.per_op (counter "serve.queue_wait_ns") submitted);
            m "serve.shed_ratio" "ratio"
              (if submitted > 0 then
                 float_of_int (sum Serve.shed_total) /. float_of_int submitted
               else 0.0);
            m "serve.timeouts" "count"
              (float_of_int (sum (fun s -> s.Serve.ts_timed_out)));
            m "serve.tier_changes" "count"
              (float_of_int (Serve.degrade_downs srv + Serve.degrade_ups srv));
          ]
        @ per_step_p99);
  Sim.run world;
  let inst = Option.get !inst_r in
  let live =
    Array.fold_left (fun a tn -> a + (rec_len * Queue.length tn.own)) 0 tenants
    + (rec_len * Hashtbl.length appended)
  in
  let rc = crash_and_recover inst.Fslab.device in
  let lost, caught =
    with_recovered_fs rc (fun fs ->
        let lost = verify fs tenants appended in
        let caught =
          (not plant)
          ||
          (* delete one acknowledged file behind the model's back *)
          let p = Queue.peek tenants.(0).own in
          V.unlink fs p = Ok ()
          && total_bad (verify fs tenants appended) = total_bad lost + 1
        in
        (lost, caught))
  in
  let failed = !failed + total_bad lost in
  let all_steps = List.init nsteps step_of in
  (* successful requests per simulated second of step k: over its arrival
     window, or (~drain) from its start to its last completion *)
  let goodput ?(drain = false) k =
    let span = if drain then last_done.(k) - starts.(k) else window_ns k in
    float_of_int (Array.length (List.nth all_steps k).Stats.lat)
    *. 1e6 /. float_of_int span
  in
  let top = nsteps - 1 in
  let grows =
    List.filter_map
      (fun s ->
        if Stats.backlog_grows ~slack:s.Stats.slack s.Stats.backlog then
          Some (Printf.sprintf "%g" s.Stats.rate_kops)
        else None)
      all_steps
  in
  {
    attempted = total;
    failed;
    sim =
      [
        m "sim_kops_per_s" "kops/s" (goodput ref_step);
        m "top_step_kops_per_s" "kops/s" (goodput ~drain:true top);
      ]
      @ latency_metrics (List.nth all_steps ref_step).Stats.lat
      @ [
          m "capacity_kops" "kops/s" (Stats.capacity ~limit_ns all_steps);
        ]
      @ outcome_metrics ~failed ~attempted:total rc ~allocated_pages:!amp_pages
          ~live_bytes:live;
    host_s = l.host_s;
    alloc_words = l.alloc;
    setup_s = !setup_s;
    layers = !layers @ recovery_layers rc;
    planted_caught = caught;
    notes =
      [
        Printf.sprintf "steps (kops/s): %s; latency limit p99 <= %d ns; reference step %g kops/s"
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%g") steps)))
          limit_ns steps.(ref_step);
        Printf.sprintf "failures: %s"
          (String.concat ", "
             (List.sort compare
                (Hashtbl.fold (fun k v a -> Printf.sprintf "%s x%d" k v :: a) failures [])
             @ List.filter_map
                 (fun (k, v) ->
                   if v > 0 then Some (Printf.sprintf "%s after recovery x%d" k v)
                   else None)
                 lost));
        Printf.sprintf "backlog samples: %s" (String.concat " / " (Array.to_list (Array.map (fun a -> String.concat " " (Array.to_list (Array.map string_of_int a))) backlog)));
        Printf.sprintf "backlog grows at: %s"
          (if grows = [] then "none" else String.concat " " grows);
      ];
  }
