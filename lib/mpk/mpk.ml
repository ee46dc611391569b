type pkey = int

let nkeys = 16
let wrpkru_cost = 6 (* ns: ~16 cycles at 2.5 GHz (paper §3.4.1) *)

type perm = Pk_none | Pk_read | Pk_read_write

(* Per-process page-table byte: bit0 mapped, bit1 writable, bits 4..7 pkey. *)
let pte_mapped = 0x01
let pte_writable = 0x02

(* Trace events for the guideline checker (lib/check): every PKRU update and
   every [with_keys] window boundary, tagged with the perms installed. *)
type trace_event =
  | M_wrpkru of { perms : (pkey * perm) list }
  | M_scope_enter of { perms : (pkey * perm) list }
  | M_scope_exit

(* Per-thread registers live in dense arrays indexed by [tid + 1], since
   code outside any simulation runs as tid -1.  A PKRU slot holds
   [no_pkru] until the thread first writes its register. *)
type t = {
  dev : Nvm.Device.t;
  tables : (int, Bytes.t) Hashtbl.t;  (* pid -> per-page PTE bytes *)
  mutable last_pid : int;  (* memo of the last [tables] hit; -1 = none *)
  mutable last_table : Bytes.t;
  mutable pkru : int array;  (* tid + 1 -> PKRU value *)
  mutable kernel_depth : int array;  (* tid + 1 -> nesting *)
  mutable write_window : int array;  (* tid + 1 -> nesting *)
  mutable faults : int;
  mutable subs : (int * (trace_event -> unit)) list;  (* delivery order *)
  mutable next_sub_id : int;
  mutable legacy_sub : int option;  (* set_trace_hook's managed slot *)
  mutable named : (string * int) list;  (* subscribe_named slots *)
}

(* PKRU encoding, as on x86: two bits per key; bit0 = access-disable,
   bit1 = write-disable.  0 = full access. *)
let pkru_all_disabled =
  (* keys 1..15 access-disabled; key 0 open *)
  let v = ref 0 in
  for k = 1 to 15 do
    v := !v lor (0b01 lsl (2 * k))
  done;
  !v

let pkru_of_perms perms =
  List.fold_left
    (fun acc (k, p) ->
      if k <= 0 || k >= nkeys then invalid_arg "Mpk: pkey out of range";
      let cleared = acc land lnot (0b11 lsl (2 * k)) in
      match p with
      | Pk_read_write -> cleared
      | Pk_read -> cleared lor (0b10 lsl (2 * k))
      | Pk_none -> cleared lor (0b01 lsl (2 * k)))
    pkru_all_disabled perms

(* Report the keys with any access enabled. *)
let perms_of_pkru v =
  let enabled = ref [] in
  for k = nkeys - 1 downto 1 do
    let bits = (v lsr (2 * k)) land 0b11 in
    if bits land 0b01 = 0 then
      enabled := (k, if bits land 0b10 = 0 then Pk_read_write else Pk_read) :: !enabled
  done;
  !enabled

let fault t addr write reason =
  t.faults <- t.faults + 1;
  raise (Nvm.Fault { addr; write; kind = Nvm.Protection; reason })

let table t pid =
  match Hashtbl.find_opt t.tables pid with
  | Some b -> b
  | None ->
      let b = Bytes.make (Nvm.Device.pages t.dev) '\000' in
      Hashtbl.replace t.tables pid b;
      b

(* The page table of [pid], or an empty one if it has none.  Most
   accesses come from the same process as the one before, so the last hit
   is memoised; [drop_process], the only place a table goes away, clears
   the memo. *)
let table_or_empty t pid =
  if pid = t.last_pid then t.last_table
  else if Hashtbl.mem t.tables pid then begin
    let b = Hashtbl.find t.tables pid in
    t.last_pid <- pid;
    t.last_table <- b;
    b
  end
  else Bytes.empty

let no_pkru = -1

(* [a] with a cell for [tid], new cells holding [fill]. *)
let ensure a tid fill =
  let n = Array.length a in
  if tid + 1 < n then a
  else begin
    let b = Array.make (max (2 * n) (tid + 2)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let slot a tid fill = if tid + 1 < Array.length a then a.(tid + 1) else fill

let set_pkru t tid v =
  t.pkru <- ensure t.pkru tid no_pkru;
  t.pkru.(tid + 1) <- v

let bump a tid delta =
  let a = ensure a tid 0 in
  a.(tid + 1) <- a.(tid + 1) + delta;
  a

let depth a tid = slot a tid 0

let pkru_of_tid t tid =
  let v = slot t.pkru tid no_pkru in
  if v = no_pkru then pkru_all_disabled else v

let current_pkru t = pkru_of_tid t (Sim.self_tid ())

let in_kernel t = depth t.kernel_depth (Sim.self_tid ()) > 0

let check t ~addr ~write =
  let tid = Sim.self_tid () in
  if depth t.kernel_depth tid > 0 then begin
    (* Kernel mode: NVM is mapped read-only; writes need a write window. *)
    if write && depth t.write_window tid = 0 then
      fault t addr write "kernel write outside CR0.WP write window"
  end
  else begin
    let b = table_or_empty t (Sim.self_proc ()).Sim.Proc.pid in
    let page = addr / Nvm.page_size in
    let pte =
      (* An address past the device end has no PTE at all: same SIGSEGV as
         an unmapped page (recovery relies on this when chasing torn
         pointers). *)
      if page < 0 || page >= Bytes.length b then 0
      else Char.code (Bytes.get b page)
    in
    if pte land pte_mapped = 0 then fault t addr write "page not mapped";
    if write && pte land pte_writable = 0 then
      fault t addr write "page mapped read-only";
    let key = pte lsr 4 in
    if key <> 0 then begin
      let bits = (pkru_of_tid t tid lsr (2 * key)) land 0b11 in
      if bits land 0b01 <> 0 then
        fault t addr write (Printf.sprintf "MPK: region %d access-disabled" key);
      if write && bits land 0b10 <> 0 then
        fault t addr write (Printf.sprintf "MPK: region %d write-disabled" key)
    end
  end

let create dev =
  let t =
    {
      dev;
      tables = Hashtbl.create 16;
      last_pid = -1;
      last_table = Bytes.empty;
      pkru = [||];
      kernel_depth = [||];
      write_window = [||];
      faults = 0;
      subs = [];
      next_sub_id = 0;
      legacy_sub = None;
      named = [];
    }
  in
  Nvm.Device.set_protection_hook dev (fun ~addr ~write -> check t ~addr ~write);
  t

let device t = t.dev

(* Multi-subscriber trace dispatch, mirroring Nvm.Device: independent
   analysis layers (lib/check, lib/obs) compose, and [set_trace_hook] keeps
   its replace-semantics API as one managed subscription slot. *)
let add_trace_subscriber t f =
  let id = t.next_sub_id in
  t.next_sub_id <- id + 1;
  (* Anonymous subscribers stay ahead of the named suffix regardless of
     registration order (same invariant as Nvm.Device). *)
  let named_ids = List.map snd t.named in
  let anon, named =
    List.partition (fun (i, _) -> not (List.mem i named_ids)) t.subs
  in
  t.subs <- anon @ [ (id, f) ] @ named;
  id

let remove_trace_subscriber t id =
  t.subs <- List.filter (fun (i, _) -> i <> id) t.subs

let set_trace_hook t f =
  (match t.legacy_sub with
  | Some id -> remove_trace_subscriber t id
  | None -> ());
  t.legacy_sub <- Some (add_trace_subscriber t f)

let clear_trace_hook t =
  match t.legacy_sub with
  | Some id ->
      remove_trace_subscriber t id;
      t.legacy_sub <- None
  | None -> ()

(* Named slots, mirroring Nvm.Device.subscribe_named: one slot per name,
   delivery order anonymous-first then named in name order, so co-installed
   checkers see identical event streams regardless of install order. *)
let reorder_named t =
  let named_ids = List.map snd t.named in
  let anon = List.filter (fun (i, _) -> not (List.mem i named_ids)) t.subs in
  let named_sorted =
    List.sort (fun (a, _) (b, _) -> compare a b) t.named
    |> List.filter_map (fun (_, id) ->
           List.find_opt (fun (j, _) -> j = id) t.subs)
  in
  t.subs <- anon @ named_sorted

let subscribe_named t ~name f =
  (match List.assoc_opt name t.named with
  | Some id ->
      remove_trace_subscriber t id;
      t.named <- List.remove_assoc name t.named
  | None -> ());
  let id = add_trace_subscriber t f in
  t.named <- (name, id) :: t.named;
  reorder_named t

let unsubscribe_named t ~name =
  match List.assoc_opt name t.named with
  | Some id ->
      remove_trace_subscriber t id;
      t.named <- List.remove_assoc name t.named
  | None -> ()

let emit t ev = List.iter (fun (_, f) -> f ev) t.subs

let map_page t ~pid ~page ~writable ~pkey =
  if pkey < 0 || pkey >= nkeys then invalid_arg "Mpk.map_page: bad pkey";
  let b = table t pid in
  let pte = pte_mapped lor (if writable then pte_writable else 0) lor (pkey lsl 4) in
  Bytes.set b page (Char.chr pte)

let unmap_page t ~pid ~page = Bytes.set (table t pid) page '\000'

let unmap_all t ~pid =
  match Hashtbl.find_opt t.tables pid with
  | None -> ()
  | Some b -> Bytes.fill b 0 (Bytes.length b) '\000'

(* Process teardown: forget the pid's page table entirely (unlike
   [unmap_all], which keeps a zero-filled table) and drop the per-thread
   register/mode state of its threads.  PKRU is per-logical-CPU state on real
   hardware; when a process dies, the next thread scheduled on that core must
   start from [pkru_all_disabled], never from the victim's register image —
   dropping the entries restores exactly that default. *)
let drop_thread_state t ~tid =
  if tid + 1 < Array.length t.pkru then t.pkru.(tid + 1) <- no_pkru;
  if tid + 1 < Array.length t.kernel_depth then t.kernel_depth.(tid + 1) <- 0;
  if tid + 1 < Array.length t.write_window then t.write_window.(tid + 1) <- 0

let has_thread_state t ~tid =
  slot t.pkru tid no_pkru <> no_pkru
  || depth t.kernel_depth tid <> 0
  || depth t.write_window tid <> 0

let drop_process t ~pid ~tids =
  Hashtbl.remove t.tables pid;
  if pid = t.last_pid then begin
    t.last_pid <- -1;
    t.last_table <- Bytes.empty
  end;
  List.iter (fun tid -> drop_thread_state t ~tid) tids

let has_table t ~pid = Hashtbl.mem t.tables pid

let is_mapped t ~pid ~page =
  match Hashtbl.find_opt t.tables pid with
  | None -> false
  | Some b -> Char.code (Bytes.get b page) land pte_mapped <> 0

let page_pkey t ~pid ~page =
  match Hashtbl.find_opt t.tables pid with
  | None -> None
  | Some b ->
      let pte = Char.code (Bytes.get b page) in
      if pte land pte_mapped = 0 then None else Some (pte lsr 4)

let wrpkru t perms =
  set_pkru t (Sim.self_tid ()) (pkru_of_perms perms);
  Sim.advance wrpkru_cost;
  if t.subs != [] then emit t (M_wrpkru { perms })

let rdpkru t = perms_of_pkru (current_pkru t)

(* Every single-key grant, with its PKRU value, built once: [with_key]
   installs one without building a list or folding over it. *)
let perm_index = function Pk_none -> 0 | Pk_read -> 1 | Pk_read_write -> 2

let single_grants =
  Array.init ((nkeys - 1) * 3) (fun i ->
      let p = [| Pk_none; Pk_read; Pk_read_write |].(i mod 3) in
      let perms = [ (1 + (i / 3), p) ] in
      (perms, pkru_of_perms perms))

let leave_scope t tid saved =
  set_pkru t tid saved;
  Sim.advance wrpkru_cost;
  if t.subs != [] then emit t M_scope_exit

(* The one body of [with_keys] and [with_key]: install [pkru] for [f], then
   restore the caller's register. *)
let scoped t pkru perms f =
  let tid = Sim.self_tid () in
  let saved = pkru_of_tid t tid in
  set_pkru t tid pkru;
  Sim.advance wrpkru_cost;
  if t.subs != [] then emit t (M_scope_enter { perms });
  match f () with
  | v ->
      leave_scope t tid saved;
      v
  | exception e ->
      leave_scope t tid saved;
      raise e

let with_keys t perms f = scoped t (pkru_of_perms perms) perms f

let with_key t k p f =
  if k <= 0 || k >= nkeys then invalid_arg "Mpk: pkey out of range";
  let perms, pkru = single_grants.((3 * (k - 1)) + perm_index p) in
  scoped t pkru perms f

let with_kernel t f =
  let tid = Sim.self_tid () in
  t.kernel_depth <- bump t.kernel_depth tid 1;
  match f () with
  | v ->
      t.kernel_depth <- bump t.kernel_depth tid (-1);
      v
  | exception e ->
      t.kernel_depth <- bump t.kernel_depth tid (-1);
      raise e

let with_write_window t f =
  let tid = Sim.self_tid () in
  if depth t.kernel_depth tid = 0 then
    invalid_arg "Mpk.with_write_window: not in kernel mode";
  t.write_window <- bump t.write_window tid 1;
  Sim.advance 15 (* CR0 write is a serializing move *);
  match f () with
  | v ->
      t.write_window <- bump t.write_window tid (-1);
      Sim.advance 15;
      v
  | exception e ->
      t.write_window <- bump t.write_window tid (-1);
      raise e

let fault_count t = t.faults
