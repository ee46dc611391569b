(* Path manipulation shared by KernFS (coffer paths), FSLibs (dispatch,
   cwd handling) and the µFS path walks.  All canonical paths are absolute,
   start with '/', use single separators and have no trailing slash except
   for the root itself. *)

let is_absolute p = String.length p > 0 && p.[0] = '/'

(* Split into components, dropping empty ones ("//" and trailing "/"). *)
let components p = String.split_on_char '/' p |> List.filter (fun c -> c <> "")

let of_components = function
  | [] -> "/"
  | cs -> "/" ^ String.concat "/" cs

(* [String.contains] raises and catches [Not_found] on every miss; this
   scan does not. *)
let has_char s pos len c =
  let found = ref false in
  for i = pos to pos + len - 1 do
    if s.[i] = c then found := true
  done;
  !found

(* [p.[pos .. pos + len)] is a plain component: non-empty, not "." or "..",
   no separator. *)
let plain_component_sub p pos len =
  len > 0
  && (not (p.[pos] = '.' && (len = 1 || (len = 2 && p.[pos + 1] = '.'))))
  && not (has_char p pos len '/')

(* [is_canonical p]: already in the form [normalize] produces.  Every path
   the FSLibs and KernFS pass around internally is, so the functions below
   answer for it by slicing the string instead of splitting it into a list
   of components and joining them again. *)
let is_canonical p =
  let n = String.length p in
  n > 0 && p.[0] = '/'
  && (n = 1
     ||
     let ok = ref true and start = ref 1 in
     for i = 1 to n do
       if i = n || p.[i] = '/' then begin
         if not (plain_component_sub p !start (i - !start)) then ok := false;
         start := i + 1
       end
     done;
     !ok)

(* Lexical normalization: resolves "." and ".." (".." at the root is kept at
   the root, as in POSIX).  Symlink-aware resolution lives in the dispatcher,
   which expands links component by component. *)
let normalize p =
  if is_canonical p then p
  else
    let rec go acc = function
      | [] -> List.rev acc
      | "." :: rest -> go acc rest
      | ".." :: rest -> (
          match acc with [] -> go [] rest | _ :: tl -> go tl rest)
      | c :: rest -> go (c :: acc) rest
    in
    of_components (go [] (components p))

(* [base ^ "/" ^ name] in one allocation. *)
let join base name =
  let lb = String.length base and ln = String.length name in
  let b = Bytes.create (lb + 1 + ln) in
  Bytes.blit_string base 0 b 0 lb;
  Bytes.set b lb '/';
  Bytes.blit_string name 0 b (lb + 1) ln;
  Bytes.unsafe_to_string b

let concat base rel =
  if is_absolute rel then normalize rel
  else if is_canonical base && plain_component_sub rel 0 (String.length rel)
  then if base = "/" then "/" ^ rel else join base rel
  else if base = "/" then normalize ("/" ^ rel)
  else normalize (base ^ "/" ^ rel)

(* The canonical root has no separator after index 0; any other canonical
   path's last separator splits it into dirname and basename. *)
let basename p =
  if is_canonical p then
    if p = "/" then "/"
    else
      let i = String.rindex p '/' + 1 in
      String.sub p i (String.length p - i)
  else match List.rev (components p) with [] -> "/" | b :: _ -> b

let dirname p =
  if is_canonical p then
    match String.rindex p '/' with 0 -> "/" | i -> String.sub p 0 i
  else
    match List.rev (components p) with
    | [] | [ _ ] -> "/"
    | _ :: rest -> of_components (List.rev rest)

(* [is_prefix ~prefix p]: is [prefix] an ancestor of (or equal to) [p]? *)
let is_prefix ~prefix p =
  if prefix = "/" then is_absolute p
  else
    let lp = String.length prefix and l = String.length p in
    l >= lp
    && (l = lp || p.[lp] = '/')
    &&
    let same = ref true in
    for i = 0 to lp - 1 do
      if p.[i] <> prefix.[i] then same := false
    done;
    !same

(* [strip_prefix ~prefix p] returns the path of [p] relative to [prefix]
   (with a leading '/'), assuming [is_prefix].  ["/"] means p = prefix. *)
let strip_prefix ~prefix p =
  if prefix = "/" then p
  else
    let lp = String.length prefix in
    if String.length p = lp then "/" else String.sub p lp (String.length p - lp)

(* Replace the [old_prefix] of [p] with [new_prefix]; used when renaming a
   directory coffer moves every descendant coffer path. *)
let replace_prefix ~old_prefix ~new_prefix p =
  let rest = strip_prefix ~prefix:old_prefix p in
  if rest = "/" then new_prefix
  else if new_prefix = "/" then rest
  else new_prefix ^ rest

let max_name_length = 58  (* dentry name capacity in ZoFS's 128-byte dentry *)
let max_path_length = 224 (* path capacity in KernFS's path-map entries *)

let valid_name n =
  let len = String.length n in
  len <= max_name_length
  && plain_component_sub n 0 len
  && not (has_char n 0 len '\000')
