(* The repository benchmark: one workload per invocation, against ZoFS,
   from a single host process.

     bench.exe --workload fileserver|kv-hot|tenants-64p --seed N
               --seconds S --trace 0|1

   A run repeats the workload, each repetition a fresh world built from the
   same seed, until S host seconds have passed (at least twice).  Simulated
   results must repeat exactly between repetitions, so they are taken from
   the first; host time and set-up time are medians over repetitions.

   --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
   and traced repetitions (Obs on, plus the benchmark's own spans and trace
   subscribers), checks that both agree on every simulated number, and
   prints the per-layer metrics; its spans are written once, at exit, to
   perfbench/out/spans-<workload>.tsv.

   Self-checks that make the command exit 1: repetitions of one seed that
   disagree on a simulated metric or on allocated words; a traced
   repetition whose simulated metrics differ from the untraced one; dropped
   Obs spans that would go unreported; a planted fault (one acknowledged
   file altered or deleted behind the model's back after the run) that
   verification does not flag.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  [correct] is whether
   every self-check held; operations whose result was wrong or missing
   are counted in [failed], and never hidden. *)

open Common

let workloads =
  [
    ("fileserver", Fileserver.run);
    ("kv-hot", Kvhot.run);
    ("tenants-64p", Tenants.run);
  ]

(* The end-to-end metrics the JSON line carries; BENCHMARK.json lists the
   same names with their bounds.  Every metric is printed in the table; the
   JSON line keeps those that apply to every workload and repeat within a
   bound across seeds (README.md says why the others are left out). *)
let end_to_end =
  [
    "sim_kops_per_s"; "sim_p50_band_ns"; "sim_p99_band_ns"; "recover_sim_ms";
    "space_amp"; "host_alloc_mwords"; "host_peak_heap_mb"; "setup_s";
  ]

(* The per-layer metrics the traced JSON line carries, with their units. *)
let per_layer =
  let ns l = List.map (fun n -> (n, "ns")) l
  and count l = List.map (fun n -> (n, "count")) l
  and ratio l = List.map (fun n -> (n, "ratio")) l in
  count [ "dispatcher.syscalls_per_op" ]
  @ ns [ "dispatcher.fslib_ns_per_op"; "dispatcher.host_ns_per_call" ]
  @ ns
      (List.concat_map
         (fun sc ->
           [ Printf.sprintf "dispatcher.%s.p50_ns" sc;
             Printf.sprintf "dispatcher.%s.p99_ns" sc ])
         syscalls)
  @ count [ "gate.crossings_per_op" ]
  @ ns [ "kernfs.ns_per_op"; "kernfs.ns_per_crossing" ]
  @ count [ "kernfs.enlarge_calls"; "kernfs.coffer_maps" ]
  @ ns [ "nvm.media_ns_per_op" ]
  @ ratio [ "nvm.write_bytes_per_user_byte"; "nvm.read_bytes_per_user_byte" ]
  @ count [ "nvm.flushes_per_op"; "nvm.fences_per_op" ]
  @ ratio [ "nvm.useful_flush_ratio"; "nvm.useful_fence_ratio" ]
  @ count
      [ "pbatch.flushes_elided_per_op"; "pbatch.fences_elided_per_op";
        "mpk.pkru_writes_per_op"; "mpk.faults"; "lease.acquires_per_op";
        "lease.retries_per_acquire" ]
  @ ns [ "lease.wait_ns_per_op" ]
  @ count [ "lease.steals"; "lease.aborts"; "balloc.slot_lost_enlarges" ]
  @ ns [ "serve.queue_wait_ns_per_req" ]
  @ ratio [ "serve.shed_ratio" ]
  @ count [ "serve.timeouts"; "serve.tier_changes" ]
  @ ns
      (List.init (Array.length Tenants.steps)
         (Printf.sprintf "serve.step%d.p99_ns"))
  @ ns [ "kvdb.get.p50_ns"; "kvdb.get.p99_ns"; "kvdb.put.p99_ns" ]
  @ count [ "kvdb.compactions" ]
  @ ratio [ "kvdb.fs_share" ]
  @ [ ("recovery.user_ms", "ms"); ("recovery.kernel_ms", "ms") ]
  @ count [ "recovery.pages_reclaimed" ]
  @ [ ("recovery.host_s", "s"); ("obs.host_overhead_pct", "%");
      ("obs.alloc_overhead_pct", "%") ]
  @ count [ "obs.spans"; "obs.spans_dropped" ]

(* Which clock each end-to-end metric is read from, for the printed table. *)
let clock name =
  if String.starts_with ~prefix:"host_" name || name = "setup_s" then "host"
  else if name = "space_amp" || name = "fail_ratio" then "model"
  else "sim"

let usage () =
  prerr_endline
    "usage: bench.exe --workload fileserver|kv-hot|tenants-64p [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let signature = ref false in
  let rec go = function
    | "--signature" :: rest ->
        signature := true;
        go rest
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        go rest
    | "--seconds" :: n :: rest ->
        seconds := int_of_string n;
        go rest
    | "--trace" :: n :: rest ->
        trace := int_of_string n;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem_assoc !workload workloads)) || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  (!workload, !seed, !seconds, !trace = 1, !signature)

(* One repetition with instrumentation on or off. *)
let rep run ~seed ~traced ~plant =
  Probe.on := traced;
  (* the last traced repetition's spans are the ones written at exit *)
  if traced then Probe.reset ();
  if traced then Obs.enable () else Obs.disable ();
  Obs.reset ();
  let r = run ~seed ~plant in
  Obs.disable ();
  Probe.on := false;
  r

let failures = ref []
let self_check ok msg = if not ok then failures := msg :: !failures

let sim_signature r = List.map (fun x -> (x.name, x.value)) r.sim

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* What a first repetition must reproduce exactly in a fresh process: every
   simulated metric and the words allocated.  (Later repetitions in one
   process allocate slightly differently, because the runtime's state
   carries over between them; the peak heap moves by a GC pool when the
   program's own start-up allocates a few words more or less.) *)
let signature r =
  String.concat " "
    (List.map
       (fun (n, v) -> Printf.sprintf "%s=%.17g" n v)
       (sim_signature r @ [ ("host_alloc_words", r.alloc_words) ]))

(* The same seed, run again by a fresh copy of this program. *)
let signature_of_fresh_process ~workload ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--workload"; workload; "--seed";
         string_of_int seed; "--signature" |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> line
  | _ -> "(the fresh process failed)"

let () =
  let workload, seed, seconds, traced, sig_only = parse_args () in
  (* a workload that stops making progress is a failed run, not a hung one *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "bench: no result after 170 s, giving up";
         exit 3));
  ignore (Unix.alarm 170);
  let run = List.assoc workload workloads in
  let t_end = Unix.gettimeofday () +. float_of_int seconds in
  let first = rep run ~seed ~traced:false ~plant:true in
  let peak_mb = peak_heap_mb () in
  if sig_only then begin
    print_endline (signature first);
    exit 0
  end;
  self_check first.planted_caught
    "a planted fault (one acknowledged file altered or deleted after the \
     run) was not flagged by verification";
  let untraced = ref [ first ] and traced_reps = ref [] in
  while
    Unix.gettimeofday () < t_end
    || List.length !untraced < 2
    || (traced && !traced_reps = [])
  do
    if traced then
      traced_reps := rep run ~seed ~traced:true ~plant:false :: !traced_reps;
    untraced := rep run ~seed ~traced:false ~plant:false :: !untraced
  done;
  List.iter
    (fun r ->
      self_check
        (sim_signature r = sim_signature first)
        "two repetitions of one seed disagree on a simulated metric")
    !untraced;
  let again = signature_of_fresh_process ~workload ~seed in
  self_check
    (again = signature first)
    (Printf.sprintf
       "a fresh run of the same seed is not identical:\n  first: %s\n  again: %s"
       (signature first) again);
  List.iter
    (fun r ->
      self_check
        (sim_signature r = sim_signature first)
        "the traced run's simulated metrics differ from the untraced run's")
    !traced_reps;
  let med f l = Stats.median (List.map f l) in
  Printf.printf "# workload %s, seed %d, %d untraced + %d traced repetitions\n"
    workload seed (List.length !untraced)
    (List.length !traced_reps);
  List.iter (Printf.printf "# %s\n") first.notes;
  let host =
    [
      m "host_s" "s" (med (fun (r : rep) -> r.host_s) !untraced);
      m "host_alloc_mwords" "Mwords" (first.alloc_words /. 1e6);
      m "host_peak_heap_mb" "MB" peak_mb;
      m "setup_s" "s" (med (fun (r : rep) -> r.setup_s) !untraced);
    ]
  in
  List.iter
    (fun x ->
      Printf.printf "%-26s %16.4f %-7s (%s)\n" x.name x.value x.unit_
        (clock x.name))
    (first.sim @ host);
  let reported =
    if not traced then first.sim @ host
    else begin
      let t = List.hd (List.rev !traced_reps) in
      let pct a b = if b > 0.0 then ((a /. b) -. 1.0) *. 100.0 else 0.0 in
      let obs =
        [
          m "obs.host_overhead_pct" "%"
            (pct (med (fun (r : rep) -> r.host_s) !traced_reps)
               (med (fun (r : rep) -> r.host_s) !untraced));
          m "obs.alloc_overhead_pct" "%" (pct t.alloc_words first.alloc_words);
        ]
      in
      let layers = t.layers @ obs in
      List.iter
        (fun x -> Printf.printf "%-34s %16.4f %s\n" x.name x.value x.unit_)
        layers;
      (* where the traced repetition's time went, by benchmark-side span *)
      Printf.printf "# %-22s %9s %12s %12s %12s\n" "span" "count" "sim_ms"
        "self_sim_ms" "host_ms";
      List.iter
        (fun (name, (s : Probe.layer_sum)) ->
          Printf.printf "# %-22s %9d %12.3f %12.3f %12.3f\n" name s.Probe.count
            (float_of_int s.Probe.sim_ns /. 1e6)
            (float_of_int s.Probe.self_sim_ns /. 1e6)
            (float_of_int s.Probe.host_ns /. 1e6))
        (List.sort compare
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Probe.summarize ()) []));
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "perfbench/out/spans-%s.tsv" workload in
      (try
         Probe.write_tsv path;
         Printf.printf "# spans: %s\n" path
       with Sys_error e -> Printf.printf "# spans not written: %s\n" e);
      layers
    end
  in
  (* a layer the workload never enters reports 0 *)
  let wanted =
    if traced then per_layer
    else
      List.map
        (fun name ->
          (name, (List.find (fun x -> x.name = name) reported).unit_))
        end_to_end
  in
  let value (name, unit_) =
    match List.find_opt (fun x -> x.name = name) reported with
    | Some x when x.unit_ = unit_ -> x.value
    | Some x -> failwith (Printf.sprintf "%s: unit %s, expected %s" name x.unit_ unit_)
    | None -> 0.0
  in
  if traced then begin
    let dropped =
      List.find_opt (fun x -> x.name = "obs.spans_dropped") reported
    in
    self_check
      (match dropped with
      | Some x -> value ("obs.spans_dropped", "count") = x.value
      | None -> false)
      "Obs dropped spans and the JSON line does not report how many"
  end;
  List.iter (Printf.printf "SELF-CHECK FAILED: %s\n") (List.rev !failures);
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (!failures = []));
        ("attempted", Obs.Json.Num (float_of_int first.attempted));
        ("failed", Obs.Json.Num (float_of_int first.failed));
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun ((name, u) as metric) ->
                 ( name,
                   Obs.Json.Obj
                     [
                       ("value", Obs.Json.Num (value metric));
                       ("unit", Obs.Json.Str u);
                     ] ))
               wanted) );
      ]
  in
  print_endline (Obs.Json.to_string json);
  if !failures <> [] then exit 1
