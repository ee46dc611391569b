(* The traced run's instruments, all on the benchmark's side of each
   layer's public interface:

   - spans around every call the benchmark makes into a layer, carrying
     both clocks (simulated and host) and the request that caused them;
   - a Vfs interposer that wraps every file-system call in such a span, so
     calls made by Kvdb on the benchmark's behalf are seen as well;
   - anonymous Nvm.Device and Mpk trace subscribers counting bytes moved,
     persistence ops and PKRU writes.

   Nothing here calls [Sim.advance]: the traced run must reproduce the
   untraced run's simulated numbers exactly, and the benchmark checks that
   it does.  Spans are kept in memory and written once, at exit. *)

module V = Treasury.Vfs

let on = ref false

(* Host clock, ns since the first reading. *)
let host_epoch = Unix.gettimeofday ()
let host_ns () = int_of_float ((Unix.gettimeofday () -. host_epoch) *. 1e9)

(* ---- span store (struct of arrays; span id = index + 1) ---------------- *)

let cap = ref 0
let n = ref 0
let s_layer = ref [||]
let s_parent = ref [||]
let s_req = ref [||]
let s_tid = ref [||]
let s_sim_ts = ref [||]
let s_sim_dur = ref [||]
let s_host_ts = ref [||]
let s_host_dur = ref [||]
let columns =
  [ s_layer; s_parent; s_req; s_tid; s_sim_ts; s_sim_dur; s_host_ts; s_host_dur ]

let grow () =
  let c = max 4096 (2 * !cap) in
  List.iter
    (fun col ->
      let a = Array.make c 0 in
      Array.blit !col 0 a 0 !n;
      col := a)
    columns;
  cap := c

(* Layer names are interned so a span costs no string allocation. *)
let layer_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let layer_names = ref [||]

let layer_id name =
  match Hashtbl.find_opt layer_ids name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length layer_ids in
      Hashtbl.replace layer_ids name i;
      layer_names := Array.append !layer_names [| name |];
      i

(* Per simulated thread: the request in flight and the open span stack. *)
let cur_req : (int, int) Hashtbl.t = Hashtbl.create 64
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 64

(* Simulated threads share the one host thread, so a span's host interval
   also covers whatever other threads ran while it was suspended.  Span
   events of another thread inside the interval reveal that; such a span's
   host time is recorded as -1 and left out of host averages. *)
let last_tid = ref (-1)
let switches = ref 0

let note_thread tid =
  if tid <> !last_tid then begin
    incr switches;
    last_tid := tid
  end

let reset () =
  n := 0;
  last_tid := -1;
  switches := 0;
  Hashtbl.reset cur_req;
  Hashtbl.reset stacks

let request id = if !on then Hashtbl.replace cur_req (Sim.self_tid ()) id

let span layer f =
  if not !on then f ()
  else begin
    if !n = !cap then grow ();
    let i = !n in
    incr n;
    let tid = Sim.self_tid () in
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
    !s_layer.(i) <- layer_id layer;
    !s_parent.(i) <- (match stack with p :: _ -> p | [] -> 0);
    !s_req.(i) <- Option.value ~default:0 (Hashtbl.find_opt cur_req tid);
    !s_tid.(i) <- tid;
    Hashtbl.replace stacks tid ((i + 1) :: stack);
    note_thread tid;
    let sw0 = !switches in
    let sim0 = Sim.now () and host0 = host_ns () in
    let finish () =
      note_thread tid;
      !s_sim_ts.(i) <- sim0;
      !s_sim_dur.(i) <- Sim.now () - sim0;
      !s_host_ts.(i) <- host0;
      !s_host_dur.(i) <- (if !switches = sw0 then host_ns () - host0 else -1);
      Hashtbl.replace stacks tid stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Per layer: spans, simulated and host time, and simulated self time
   (duration minus the part covered by child spans).  [host_ns] sums the
   [host_count] spans that ran without interleaving. *)
type layer_sum = {
  mutable count : int;
  mutable sim_ns : int;
  mutable self_sim_ns : int;
  mutable host_ns : int;
  mutable host_count : int;
}

let summarize () =
  let child = Array.make (max 1 !n) 0 in
  for i = 0 to !n - 1 do
    let p = !s_parent.(i) in
    if p > 0 then child.(p - 1) <- child.(p - 1) + !s_sim_dur.(i)
  done;
  let sums = Hashtbl.create 16 in
  for i = 0 to !n - 1 do
    let name = !layer_names.(!s_layer.(i)) in
    let s =
      match Hashtbl.find_opt sums name with
      | Some s -> s
      | None ->
          let s =
            { count = 0; sim_ns = 0; self_sim_ns = 0; host_ns = 0; host_count = 0 }
          in
          Hashtbl.replace sums name s;
          s
    in
    s.count <- s.count + 1;
    s.sim_ns <- s.sim_ns + !s_sim_dur.(i);
    s.self_sim_ns <- s.self_sim_ns + (!s_sim_dur.(i) - child.(i));
    if !s_host_dur.(i) >= 0 then begin
      s.host_ns <- s.host_ns + !s_host_dur.(i);
      s.host_count <- s.host_count + 1
    end
  done;
  sums

(* Summed simulated time of spans of [child_prefix] layers whose parent
   span is of layer [parent]. *)
let child_sim_ns ~parent ~child_prefix =
  let pl = layer_id parent in
  let total = ref 0 in
  for i = 0 to !n - 1 do
    let p = !s_parent.(i) in
    if
      p > 0
      && !s_layer.(p - 1) = pl
      && String.starts_with ~prefix:child_prefix !layer_names.(!s_layer.(i))
    then total := !total + !s_sim_dur.(i)
  done;
  !total

let write_tsv path =
  let oc = open_out path in
  output_string oc
    "span\tparent\treq\ttid\tlayer\tsim_ts_ns\tsim_dur_ns\thost_ts_ns\thost_dur_ns\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n" (i + 1)
      !s_parent.(i) !s_req.(i) !s_tid.(i)
      !layer_names.(!s_layer.(i))
      !s_sim_ts.(i) !s_sim_dur.(i) !s_host_ts.(i) !s_host_dur.(i)
  done;
  close_out oc

(* ---- Vfs interposer ------------------------------------------------------ *)

module Traced_fs : V.S with type t = V.fs = struct
  type t = V.fs

  let name = V.name
  let openf t p fl m = span "vfs.open" (fun () -> V.openf t p fl m)
  let mkdir t p m = span "vfs.mkdir" (fun () -> V.mkdir t p m)
  let rmdir t p = span "vfs.rmdir" (fun () -> V.rmdir t p)
  let unlink t p = span "vfs.unlink" (fun () -> V.unlink t p)
  let rename t a b = span "vfs.rename" (fun () -> V.rename t a b)
  let stat t p = span "vfs.stat" (fun () -> V.stat t p)
  let lstat t p = span "vfs.lstat" (fun () -> V.lstat t p)
  let readdir t p = span "vfs.readdir" (fun () -> V.readdir t p)
  let chmod t p m = span "vfs.chmod" (fun () -> V.chmod t p m)
  let chown t p u g = span "vfs.chown" (fun () -> V.chown t p u g)

  let symlink t ~target ~link =
    span "vfs.symlink" (fun () -> V.symlink t ~target ~link)

  let readlink t p = span "vfs.readlink" (fun () -> V.readlink t p)
  let truncate t p l = span "vfs.truncate" (fun () -> V.truncate t p l)
  let close t fd = span "vfs.close" (fun () -> V.close t fd)
  let read t fd b o l = span "vfs.read" (fun () -> V.read t fd b o l)

  let pread t fd ~off b o l =
    span "vfs.pread" (fun () -> V.pread t fd ~off b o l)

  let write t fd s = span "vfs.write" (fun () -> V.write t fd s)
  let pwrite t fd ~off s = span "vfs.pwrite" (fun () -> V.pwrite t fd ~off s)
  let lseek t fd p w = span "vfs.lseek" (fun () -> V.lseek t fd p w)
  let fsync t fd = span "vfs.fsync" (fun () -> V.fsync t fd)
  let fstat t fd = span "vfs.fstat" (fun () -> V.fstat t fd)
  let ftruncate t fd l = span "vfs.ftruncate" (fun () -> V.ftruncate t fd l)
end

(* The traced run hands workloads this wrapper; the untraced run hands
   them the file system itself. *)
let fs inner = if !on then V.Fs ((module Traced_fs), inner) else inner

(* ---- device and MPK subscribers ------------------------------------------ *)

type hw = {
  mutable write_bytes : int;
  mutable read_bytes : int;
  mutable pkru_writes : int;
}

let hw = { write_bytes = 0; read_bytes = 0; pkru_writes = 0 }

(* Counting is switched on for the measured phase only. *)
let counting = ref false

let reset_hw () =
  hw.write_bytes <- 0;
  hw.read_bytes <- 0;
  hw.pkru_writes <- 0

let attach_hw dev mpk =
  if !on then begin
    ignore
      (Nvm.Device.add_trace_subscriber dev (fun ev ->
           if !counting then
             match (ev : Nvm.Device.trace_event) with
             | T_store { len; _ } | T_nt_store { len; _ } | T_cas { len; _ } ->
                 hw.write_bytes <- hw.write_bytes + len
             | T_load { len; _ } -> hw.read_bytes <- hw.read_bytes + len
             | T_clwb _ | T_fence _ | T_media_fault _ | T_reset -> ()));
    ignore
      (Mpk.add_trace_subscriber mpk (fun _ ->
           if !counting then hw.pkru_writes <- hw.pkru_writes + 1))
  end
