(* Tests for the persistent path→coffer hash table and path utilities. *)

module P = Treasury.Path_map
module Pathx = Treasury.Pathx
module D = Nvm.Device

let mk ?(nbuckets = 64) () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(128 * Nvm.page_size) () in
  (* Slab pages handed out from the tail of the device. *)
  let next = ref 127 in
  let alloc_page () =
    if !next < P.region_pages nbuckets then None
    else begin
      let p = !next in
      decr next;
      Some p
    end
  in
  (dev, P.format dev ~base:0 ~nbuckets ~alloc_page)

(* ---- Pathx ------------------------------------------------------------- *)

let test_normalize () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Pathx.normalize input))
    [
      ("/", "/");
      ("/a/b", "/a/b");
      ("/a//b/", "/a/b");
      ("/a/./b", "/a/b");
      ("/a/../b", "/b");
      ("/../..", "/");
      ("/a/b/c/../../d", "/a/d");
    ]

let test_dirname_basename () =
  Alcotest.(check string) "dirname" "/a/b" (Pathx.dirname "/a/b/c");
  Alcotest.(check string) "dirname root child" "/" (Pathx.dirname "/a");
  Alcotest.(check string) "dirname root" "/" (Pathx.dirname "/");
  Alcotest.(check string) "basename" "c" (Pathx.basename "/a/b/c");
  Alcotest.(check string) "basename root" "/" (Pathx.basename "/")

let test_prefix_ops () =
  Alcotest.(check bool) "is_prefix" true (Pathx.is_prefix ~prefix:"/a/b" "/a/b/c");
  Alcotest.(check bool) "equal is prefix" true (Pathx.is_prefix ~prefix:"/a/b" "/a/b");
  Alcotest.(check bool) "not component boundary" false
    (Pathx.is_prefix ~prefix:"/a/b" "/a/bc");
  Alcotest.(check bool) "root prefixes all" true (Pathx.is_prefix ~prefix:"/" "/x");
  Alcotest.(check string) "strip" "/c" (Pathx.strip_prefix ~prefix:"/a/b" "/a/b/c");
  Alcotest.(check string) "strip equal" "/" (Pathx.strip_prefix ~prefix:"/a/b" "/a/b");
  Alcotest.(check string) "replace" "/x/y/c"
    (Pathx.replace_prefix ~old_prefix:"/a/b" ~new_prefix:"/x/y" "/a/b/c")

let test_concat () =
  Alcotest.(check string) "rel" "/a/b" (Pathx.concat "/a" "b");
  Alcotest.(check string) "abs wins" "/c" (Pathx.concat "/a" "/c");
  Alcotest.(check string) "dotdot" "/x" (Pathx.concat "/a/b" "../../x")

let test_valid_name () =
  Alcotest.(check bool) "ok" true (Pathx.valid_name "hello.txt");
  Alcotest.(check bool) "empty" false (Pathx.valid_name "");
  Alcotest.(check bool) "dot" false (Pathx.valid_name ".");
  Alcotest.(check bool) "dotdot" false (Pathx.valid_name "..");
  Alcotest.(check bool) "slash" false (Pathx.valid_name "a/b");
  Alcotest.(check bool) "too long" false (Pathx.valid_name (String.make 100 'x'))

(* Component-based reference for the slicing fast paths of [Pathx]: split
   into components, resolve, join again — what every function did for
   every input before canonical paths were special-cased. *)
module Ref = struct
  let components p =
    String.split_on_char '/' p |> List.filter (fun c -> c <> "")

  let of_components = function
    | [] -> "/"
    | cs -> "/" ^ String.concat "/" cs

  let normalize p =
    let rec go acc = function
      | [] -> List.rev acc
      | "." :: rest -> go acc rest
      | ".." :: rest -> (
          match acc with [] -> go [] rest | _ :: tl -> go tl rest)
      | c :: rest -> go (c :: acc) rest
    in
    of_components (go [] (components p))

  let concat base rel =
    if Pathx.is_absolute rel then normalize rel
    else if base = "/" then normalize ("/" ^ rel)
    else normalize (base ^ "/" ^ rel)

  let basename p =
    match List.rev (components p) with [] -> "/" | b :: _ -> b

  let dirname p =
    match List.rev (components p) with
    | [] | [ _ ] -> "/"
    | _ :: rest -> of_components (List.rev rest)

  let is_prefix ~prefix p =
    if prefix = "/" then Pathx.is_absolute p
    else
      let lp = String.length prefix and l = String.length p in
      l >= lp && String.sub p 0 lp = prefix && (l = lp || p.[lp] = '/')

  let valid_name n =
    n <> "" && n <> "." && n <> ".."
    && String.length n <= Pathx.max_name_length
    && (not (String.contains n '/'))
    && not (String.contains n '\000')
end

(* Paths over {a, b, ., /}: every mix of empty, ".", ".." and plain
   components, with and without leading, doubled and trailing slashes.
   Half of them are passed through the reference normalizer so the
   canonical fast paths are exercised as often as the fallbacks. *)
let path_gen =
  QCheck.Gen.(
    let raw = string_size ~gen:(oneofl [ 'a'; 'b'; '.'; '/' ]) (int_range 0 12) in
    oneof [ raw; map Ref.normalize raw ])

let qcheck_pathx_matches_reference =
  QCheck.Test.make ~name:"Pathx fast paths agree with the component reference"
    ~count:2000
    QCheck.(make ~print:Print.(pair string string) (Gen.pair path_gen path_gen))
    (fun (p, q) ->
      let canonical_kept = Ref.normalize p <> p || Pathx.normalize p == p in
      Pathx.normalize p = Ref.normalize p
      && canonical_kept
      && Pathx.dirname p = Ref.dirname p
      && Pathx.basename p = Ref.basename p
      && Pathx.concat p q = Ref.concat p q
      && Pathx.is_prefix ~prefix:p q = Ref.is_prefix ~prefix:p q
      && Pathx.valid_name p = Ref.valid_name p)

let test_canonical_fast_paths () =
  (* Spot checks of the sliced answers, including their sharing: a
     canonical path normalizes to itself, not to a copy. *)
  let p = "/a/b/c" in
  Alcotest.(check bool) "normalize returns its input" true (Pathx.normalize p == p);
  Alcotest.(check string) "dirname" "/a/b" (Pathx.dirname p);
  Alcotest.(check string) "basename" "c" (Pathx.basename p);
  Alcotest.(check string) "concat" "/a/b/c/d" (Pathx.concat p "d");
  Alcotest.(check string) "concat at root" "/d" (Pathx.concat "/" "d");
  Alcotest.(check string) "dotted name" "/a/.x" (Pathx.concat "/a" ".x");
  Alcotest.(check string) "non-canonical base" "/a/d" (Pathx.concat "/a//" "d")

(* ---- Path_map ----------------------------------------------------------- *)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" (Treasury.Errno.to_string e)

let test_insert_lookup () =
  let _, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/" ~cid:10);
  ok_or_fail (P.insert pm ~path:"/home" ~cid:20);
  Alcotest.(check (option int)) "root" (Some 10) (P.lookup pm "/");
  Alcotest.(check (option int)) "home" (Some 20) (P.lookup pm "/home");
  Alcotest.(check (option int)) "missing" None (P.lookup pm "/etc");
  Alcotest.(check int) "count" 2 (P.count pm)

let test_duplicate_rejected () =
  let _, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/a" ~cid:1);
  match P.insert pm ~path:"/a" ~cid:2 with
  | Error Treasury.Errno.EEXIST -> ()
  | _ -> Alcotest.fail "expected EEXIST"

let test_remove () =
  let _, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/a" ~cid:1);
  ok_or_fail (P.insert pm ~path:"/b" ~cid:2);
  ok_or_fail (P.remove pm "/a");
  Alcotest.(check (option int)) "gone" None (P.lookup pm "/a");
  Alcotest.(check (option int)) "kept" (Some 2) (P.lookup pm "/b");
  Alcotest.(check int) "count" 1 (P.count pm);
  (match P.remove pm "/a" with
  | Error Treasury.Errno.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT")

let test_slot_reuse () =
  let _, pm = mk () in
  for i = 1 to 100 do
    ok_or_fail (P.insert pm ~path:(Printf.sprintf "/f%d" i) ~cid:i)
  done;
  for i = 1 to 100 do
    ok_or_fail (P.remove pm (Printf.sprintf "/f%d" i))
  done;
  (* After full churn the free list must be able to satisfy new inserts. *)
  for i = 1 to 100 do
    ok_or_fail (P.insert pm ~path:(Printf.sprintf "/g%d" i) ~cid:i)
  done;
  Alcotest.(check int) "count" 100 (P.count pm);
  Alcotest.(check (option int)) "sample" (Some 50) (P.lookup pm "/g50")

let test_collisions_in_tiny_table () =
  (* One bucket: everything collides; chains must still work. *)
  let _, pm = mk ~nbuckets:1 () in
  for i = 1 to 40 do
    ok_or_fail (P.insert pm ~path:(Printf.sprintf "/dir%d" i) ~cid:(i * 7))
  done;
  for i = 1 to 40 do
    Alcotest.(check (option int))
      (Printf.sprintf "lookup %d" i)
      (Some (i * 7))
      (P.lookup pm (Printf.sprintf "/dir%d" i))
  done;
  (* Remove from the middle of a chain. *)
  ok_or_fail (P.remove pm "/dir20");
  Alcotest.(check (option int)) "removed" None (P.lookup pm "/dir20");
  Alcotest.(check (option int)) "before kept" (Some (19 * 7)) (P.lookup pm "/dir19");
  Alcotest.(check (option int)) "after kept" (Some (21 * 7)) (P.lookup pm "/dir21")

let test_rename () =
  let _, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/old" ~cid:5);
  ok_or_fail (P.rename pm ~old_path:"/old" ~new_path:"/new");
  Alcotest.(check (option int)) "old gone" None (P.lookup pm "/old");
  Alcotest.(check (option int)) "new there" (Some 5) (P.lookup pm "/new")

let test_set_cid () =
  let _, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/x" ~cid:1);
  ok_or_fail (P.set_cid pm ~path:"/x" ~cid:99);
  Alcotest.(check (option int)) "updated" (Some 99) (P.lookup pm "/x")

let test_longest_prefix () =
  let _, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/" ~cid:1);
  ok_or_fail (P.insert pm ~path:"/home" ~cid:2);
  ok_or_fail (P.insert pm ~path:"/home/alice" ~cid:3);
  let check path expected =
    Alcotest.(check (option (pair string int))) path expected (P.longest_prefix pm path)
  in
  check "/home/alice/doc.txt" (Some ("/home/alice", 3));
  check "/home/bob/x" (Some ("/home", 2));
  check "/etc/passwd" (Some ("/", 1));
  check "/home/alice" (Some ("/home/alice", 3))

let test_too_long_path () =
  let _, pm = mk () in
  match P.insert pm ~path:("/" ^ String.make 300 'a') ~cid:1 with
  | Error Treasury.Errno.ENAMETOOLONG -> ()
  | _ -> Alcotest.fail "expected ENAMETOOLONG"

let test_persistence_across_load () =
  let dev, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/" ~cid:1);
  ok_or_fail (P.insert pm ~path:"/data" ~cid:2);
  D.crash ~policy:`Drop_all dev;
  let next = ref 100 in
  let alloc_page () = decr next; Some !next in
  let pm' = P.load dev ~base:0 ~alloc_page in
  Alcotest.(check (option int)) "root survives" (Some 1) (P.lookup pm' "/");
  Alcotest.(check (option int)) "data survives" (Some 2) (P.lookup pm' "/data")

let test_iter_to_list () =
  let _, pm = mk () in
  ok_or_fail (P.insert pm ~path:"/a" ~cid:1);
  ok_or_fail (P.insert pm ~path:"/b" ~cid:2);
  ok_or_fail (P.insert pm ~path:"/c" ~cid:3);
  let l = P.to_list pm |> List.sort compare in
  Alcotest.(check (list (pair string int)))
    "all entries"
    [ ("/a", 1); ("/b", 2); ("/c", 3) ]
    l

let qcheck_model =
  QCheck.Test.make ~name:"path_map behaves like an assoc map" ~count:60
    QCheck.(
      list
        (pair bool (int_range 0 60)))
    (fun ops ->
      let _, pm = mk ~nbuckets:8 () in
      let model : (string, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (ins, k) ->
          let path = Printf.sprintf "/p%d" k in
          if ins then begin
            match P.insert pm ~path ~cid:k with
            | Ok () -> Hashtbl.replace model path k
            | Error _ -> ()
          end
          else begin
            (match P.remove pm path with Ok () | Error _ -> ());
            Hashtbl.remove model path
          end)
        ops;
      Hashtbl.fold (fun p c ok -> ok && P.lookup pm p = Some c) model true
      && P.count pm = Hashtbl.length model)

let () =
  Alcotest.run "path_map"
    [
      ( "pathx",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "dirname/basename" `Quick test_dirname_basename;
          Alcotest.test_case "prefix ops" `Quick test_prefix_ops;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "valid_name" `Quick test_valid_name;
          Alcotest.test_case "canonical fast paths" `Quick
            test_canonical_fast_paths;
          QCheck_alcotest.to_alcotest qcheck_pathx_matches_reference;
        ] );
      ( "map",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "duplicate" `Quick test_duplicate_rejected;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
          Alcotest.test_case "collisions" `Quick test_collisions_in_tiny_table;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "set_cid" `Quick test_set_cid;
          Alcotest.test_case "longest prefix" `Quick test_longest_prefix;
          Alcotest.test_case "too long" `Quick test_too_long_path;
          Alcotest.test_case "persistence" `Quick test_persistence_across_load;
          Alcotest.test_case "iteration" `Quick test_iter_to_list;
          QCheck_alcotest.to_alcotest qcheck_model;
        ] );
    ]
