(* Filebench-style macro workloads: the four personalities of the paper's
   Table 6 / Figure 9 (fileserver, webserver, webproxy, varmail).

   The file-set parameters are scaled down from the paper's (10,000 × 128 KB
   would not fit a laptop-scale simulation) but the *ratios* that drive the
   result — directory width, read/write mix, whole-file vs append access —
   are preserved; DESIGN.md records the scaling. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types

let ok = Runner.ok

type personality = {
  pname : string;
  nfiles : int;
  dir_width : int;  (* 0 = all files in one flat directory *)
  file_size : int;
  io_size : int;
  run : ?dir_width:int -> Fslab.system -> nthreads:int -> ops:int -> Runner.result;
}

(* Build the file tree: [dir_width] children per directory.  A very large
   width (>= nfiles) puts every file in one directory (webproxy/varmail). *)
let file_paths ~nfiles ~dir_width =
  if dir_width = 0 || dir_width >= nfiles then
    List.init nfiles (fun i -> Printf.sprintf "/bigdir/f%05d" i)
  else begin
    (* nested tree of the given width *)
    let rec path_of i =
      if i < dir_width then Printf.sprintf "/t/d%d" i
      else path_of (i / dir_width) ^ Printf.sprintf "/d%d" (i mod dir_width)
    in
    List.init nfiles (fun i ->
        path_of (i mod max 1 (nfiles / dir_width)) ^ Printf.sprintf "/f%05d" i)
  end

let build_tree fs paths ~file_size =
  let made = Hashtbl.create 64 in
  let chunk = String.make (min file_size 4096) 'f' in
  List.iter
    (fun p ->
      let dir = Treasury.Pathx.dirname p in
      if not (Hashtbl.mem made dir) then begin
        ignore (V.mkdir_p fs dir 0o755);
        Hashtbl.replace made dir ()
      end;
      let fd = ok (V.openf fs p [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
      let remaining = ref file_size in
      while !remaining > 0 do
        let n = min !remaining (String.length chunk) in
        ignore (ok (V.write fs fd (String.sub chunk 0 n)));
        remaining := !remaining - n
      done;
      ok (V.close fs fd))
    paths

type ctx = {
  inst : Fslab.instance;
  paths : string array;
  file_size : int;
  io_size : int;
}

let setup sys ~nfiles ~dir_width ~file_size ~io_size () =
  let inst = Fslab.make ~pages:131072 sys in
  let paths = file_paths ~nfiles ~dir_width in
  build_tree inst.Fslab.fs paths ~file_size;
  { inst; paths = Array.of_list paths; file_size; io_size }

let read_whole fs path buf =
  match V.openf fs path [ Ft.O_RDONLY ] 0 with
  | Error _ -> ()
  | Ok fd ->
      let rec loop () =
        match V.read fs fd buf 0 (Bytes.length buf) with
        | Ok n when n > 0 -> loop ()
        | Ok _ | Error _ -> ()
      in
      loop ();
      ignore (V.close fs fd)

let append fs path data =
  match V.openf fs path [ Ft.O_WRONLY; Ft.O_APPEND ] 0 with
  | Error _ -> ()
  | Ok fd ->
      ignore (V.write fs fd data);
      ignore (V.close fs fd)

(* fileserver: create/write, append, read-whole, delete, stat — R:W 1:2 *)
let fileserver_run ?(dir_width = 20) sys ~nthreads ~ops =
  let nfiles = 400 and file_size = 16384 and io_size = 16384 in
  Runner.run ~nthreads ~ops
    ~setup:(setup sys ~nfiles ~dir_width ~file_size ~io_size)
    ~worker:(fun ctx ~tid ->
      let fs = ctx.inst.Fslab.fs in
      let rng = Sim.Rng.create (Int64.of_int (tid + 13)) in
      let buf = Bytes.create ctx.io_size in
      let data = String.make ctx.io_size 'w' in
      let half = String.sub data 0 (ctx.io_size / 2) in
      fun ~i ->
        ignore i;
        let p = ctx.paths.(Sim.Rng.int rng (Array.length ctx.paths)) in
        match Sim.Rng.int rng 6 with
        | 0 ->
            (* delete + recreate with a full write *)
            ignore (V.unlink fs p);
            ignore (V.write_file fs p ~mode:0o644 data)
        | 1 | 2 -> append fs p half
        | 3 | 4 -> read_whole fs p buf
        | _ -> ignore (V.stat fs p))
    ()

(* webserver: 10 reads per log append — R:W 10:1 *)
let webserver_run ?(dir_width = 20) sys ~nthreads ~ops =
  let nfiles = 200 and file_size = 16384 and io_size = 16384 in
  Runner.run ~nthreads ~ops
    ~setup:(fun () ->
      let ctx = setup sys ~nfiles ~dir_width ~file_size ~io_size () in
      ignore (V.write_file ctx.inst.Fslab.fs "/weblog" ~mode:0o644 "");
      ctx)
    ~worker:(fun ctx ~tid ->
      let fs = ctx.inst.Fslab.fs in
      let rng = Sim.Rng.create (Int64.of_int (tid + 31)) in
      let buf = Bytes.create ctx.io_size in
      let entry = String.make 512 'l' in
      fun ~i ->
        ignore i;
        for _ = 1 to 10 do
          let p = ctx.paths.(Sim.Rng.int rng (Array.length ctx.paths)) in
          read_whole fs p buf
        done;
        append fs "/weblog" entry)
    ()

(* webproxy: create+write then 5 re-reads, everything in one huge flat
   directory (dir_width 1,000,000 in the paper) *)
let webproxy_run ?(dir_width = 1_000_000) sys ~nthreads ~ops =
  let nfiles = 400 and file_size = 16384 and io_size = 16384 in
  Runner.run ~nthreads ~ops
    ~setup:(setup sys ~nfiles ~dir_width ~file_size ~io_size)
    ~worker:(fun ctx ~tid ->
      let fs = ctx.inst.Fslab.fs in
      let rng = Sim.Rng.create (Int64.of_int (tid + 47)) in
      let buf = Bytes.create ctx.io_size in
      let data = String.make ctx.io_size 'p' in
      fun ~i ->
        ignore i;
        let p = ctx.paths.(Sim.Rng.int rng (Array.length ctx.paths)) in
        ignore (V.unlink fs p);
        ignore (V.write_file fs p ~mode:0o644 data);
        for _ = 1 to 5 do
          read_whole fs p buf
        done)
    ()

(* varmail: mail-server pattern — create+fsync, read, delete; one flat
   directory *)
let varmail_run ?(dir_width = 1_000_000) sys ~nthreads ~ops =
  let nfiles = 200 and file_size = 16384 and io_size = 16384 in
  Runner.run ~nthreads ~ops
    ~setup:(setup sys ~nfiles ~dir_width ~file_size ~io_size)
    ~worker:(fun ctx ~tid ->
      let fs = ctx.inst.Fslab.fs in
      let rng = Sim.Rng.create (Int64.of_int (tid + 59)) in
      let buf = Bytes.create ctx.io_size in
      let data = String.make (ctx.io_size / 2) 'm' in
      fun ~i ->
        ignore i;
        let p = ctx.paths.(Sim.Rng.int rng (Array.length ctx.paths)) in
        match Sim.Rng.int rng 4 with
        | 0 ->
            (* deliver: create + write + fsync *)
            ignore (V.unlink fs p);
            (match V.openf fs p [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644 with
            | Ok fd ->
                ignore (V.write fs fd data);
                ignore (V.fsync fs fd);
                ignore (V.close fs fd)
            | Error _ -> ())
        | 1 ->
            (* reread after append + fsync *)
            append fs p data;
            read_whole fs p buf
        | 2 -> read_whole fs p buf
        | _ -> ignore (V.stat fs p))
    ()

let fileserver =
  {
    pname = "fileserver";
    nfiles = 10_000;
    dir_width = 20;
    file_size = 128 * 1024;
    io_size = 16 * 1024;
    run = fileserver_run;
  }

let webserver =
  {
    pname = "webserver";
    nfiles = 1_000;
    dir_width = 20;
    file_size = 16 * 1024;
    io_size = 512;
    run = webserver_run;
  }

let webproxy =
  {
    pname = "webproxy";
    nfiles = 10_000;
    dir_width = 1_000_000;
    file_size = 16 * 1024;
    io_size = 16 * 1024;
    run = webproxy_run;
  }

let varmail =
  {
    pname = "varmail";
    nfiles = 1_000;
    dir_width = 1_000_000;
    file_size = 16 * 1024;
    io_size = 16 * 1024;
    run = varmail_run;
  }

let all = [ fileserver; webserver; webproxy; varmail ]
