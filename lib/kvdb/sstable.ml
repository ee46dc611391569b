(* Immutable sorted string table.

   File layout:
     data block:  [klen u32][key][flag u8][vlen u32][value]*   (sorted keys)
     index block: [klen u32][key][offset u64]*                 (sparse, every
                                                                 16th entry)
     footer:      [index_off u64][index_len u64][count u64][magic u32]

   Readers keep the sparse index in memory: a get seeks to the greatest
   index key <= target and scans forward at most 16 entries. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types

let magic = 0x5354424C (* "STBL" *)
let index_stride = 16

type entry = { key : string; value : string option (* None = tombstone *) }

let ( let* ) = Result.bind

(* ---- writer --------------------------------------------------------------- *)

let encode_entry b { key; value } =
  Buffer.add_int32_le b (Int32.of_int (String.length key));
  Buffer.add_string b key;
  (match value with
  | Some v ->
      Buffer.add_char b '\001';
      Buffer.add_int32_le b (Int32.of_int (String.length v));
      Buffer.add_string b v
  | None ->
      Buffer.add_char b '\000';
      Buffer.add_int32_le b 0l)

(* Write [entries] (sorted ascending, unique keys) to [path]. *)
let write fs path entries =
  let data = Buffer.create 4096 in
  let index = Buffer.create 256 in
  List.iteri
    (fun i e ->
      if i mod index_stride = 0 then begin
        Buffer.add_int32_le index (Int32.of_int (String.length e.key));
        Buffer.add_string index e.key;
        Buffer.add_int64_le index (Int64.of_int (Buffer.length data))
      end;
      encode_entry data e)
    entries;
  let index_off = Buffer.length data in
  let footer = Buffer.create 28 in
  Buffer.add_int64_le footer (Int64.of_int index_off);
  Buffer.add_int64_le footer (Int64.of_int (Buffer.length index));
  Buffer.add_int64_le footer (Int64.of_int (List.length entries));
  Buffer.add_int32_le footer (Int32.of_int magic);
  let* fd = V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY; Ft.O_TRUNC ] 0o644 in
  let* _ = V.write fs fd (Buffer.contents data) in
  let* _ = V.write fs fd (Buffer.contents index) in
  let* _ = V.write fs fd (Buffer.contents footer) in
  let* () = V.fsync fs fd in
  V.close fs fd

(* ---- reader --------------------------------------------------------------- *)

type t = {
  fs : V.fs;
  path : string;
  count : int;
  index : (string * int) array;  (* sparse: key -> data offset *)
  data_len : int;
  mutable smallest : string;
  mutable largest : string;
}

let u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let u64 s off = u32 s off lor (u32 s (off + 4) lsl 32)

let decode_entry s off =
  let klen = u32 s off in
  let key = String.sub s (off + 4) klen in
  let flag = Char.code s.[off + 4 + klen] in
  let vlen = u32 s (off + 5 + klen) in
  let value =
    if flag = 0 then None else Some (String.sub s (off + 9 + klen) vlen)
  in
  ({ key; value }, off + 9 + klen + vlen)

(* [compare] of the [klen]-byte key stored at [off] in [s] against [key],
   without copying it out: byte-lexicographic with a proper prefix first,
   the order of OCaml's string [compare]. *)
let compare_key_at s off klen key =
  let n = String.length key in
  let m = min klen n in
  let rec go i =
    if i = m then Int.compare klen n
    else
      let c = Char.compare s.[off + i] key.[i] in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let read_range fs path ~off ~len =
  let* fd = V.openf fs path [ Ft.O_RDONLY ] 0 in
  let buf = Bytes.create len in
  let* n = V.pread fs fd ~off buf 0 len in
  let* () = V.close fs fd in
  if n <> len then Error Treasury.Errno.EIO
  else Ok (Bytes.unsafe_to_string buf)

let open_ fs path =
  let* st = V.stat fs path in
  let size = st.Ft.st_size in
  if size < 28 then Error Treasury.Errno.EIO
  else
    let* footer = read_range fs path ~off:(size - 28) ~len:28 in
    if u32 footer 24 <> magic then Error Treasury.Errno.EIO
    else begin
      let index_off = u64 footer 0 in
      let index_len = u64 footer 8 in
      let count = u64 footer 16 in
      let* index_raw = read_range fs path ~off:index_off ~len:index_len in
      let entries = ref [] in
      let off = ref 0 in
      while !off < index_len do
        let klen = u32 index_raw !off in
        let key = String.sub index_raw (!off + 4) klen in
        let data_off = u64 index_raw (!off + 4 + klen) in
        entries := (key, data_off) :: !entries;
        off := !off + 12 + klen
      done;
      let t =
        {
          fs;
          path;
          count;
          index = Array.of_list (List.rev !entries);
          data_len = index_off;
          smallest = "";
          largest = "";
        }
      in
      (if Array.length t.index > 0 then begin
         t.smallest <- fst t.index.(0);
         (* largest: decode the final stretch *)
         let last_off = snd t.index.(Array.length t.index - 1) in
         match read_range fs path ~off:last_off ~len:(t.data_len - last_off) with
         | Ok chunk ->
             let off = ref 0 in
             let last = ref t.smallest in
             while !off < String.length chunk do
               let e, next = decode_entry chunk !off in
               last := e.key;
               off := next
             done;
             t.largest <- !last
         | Error _ -> ()
       end);
      Ok t
    end

let count t = t.count
let key_range t = (t.smallest, t.largest)

(* Greatest sparse-index slot whose key <= target. *)
let index_floor t key =
  let lo = ref 0 and hi = ref (Array.length t.index - 1) in
  if Array.length t.index = 0 || fst t.index.(0) > key then None
  else begin
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst t.index.(mid) <= key then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let get t key =
  match index_floor t key with
  | None -> None
  | Some slot ->
      let start = snd t.index.(slot) in
      let stop =
        if slot + 1 < Array.length t.index then snd t.index.(slot + 1)
        else t.data_len
      in
      (match read_range t.fs t.path ~off:start ~len:(stop - start) with
      | Error _ -> None
      | Ok chunk ->
          (* Keys are compared in place; only a hit's value is copied. *)
          let rec scan off =
            if off >= String.length chunk then None
            else
              let klen = u32 chunk off in
              let c = compare_key_at chunk (off + 4) klen key in
              let vlen = u32 chunk (off + 5 + klen) in
              if c = 0 then
                Some
                  (if Char.code chunk.[off + 4 + klen] = 0 then None
                   else Some (String.sub chunk (off + 9 + klen) vlen))
              else if c > 0 then None
              else scan (off + 9 + klen + vlen)
          in
          scan 0)

(* Stream every entry in key order. *)
let iter t f =
  match read_range t.fs t.path ~off:0 ~len:t.data_len with
  | Error _ -> ()
  | Ok chunk ->
      let off = ref 0 in
      while !off < String.length chunk do
        let e, next = decode_entry chunk !off in
        f e;
        off := next
      done

let entries t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc
