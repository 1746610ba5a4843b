(* A lint over the modules on the engines' per-event path.  Without
   flambda, [Stdlib.max]/[min]/[compare] on ints are out-of-line calls
   into the runtime's generic compare; executed once per simulated event
   (or per processor per event) they cost more than the work around
   them.  [= None]/[<> None] is polymorphic equality too, and only
   compiles to a pointer test because one side is a constant; [match] or
   [Option.is_none]/[Option.is_some] says what is meant without relying
   on that.  The rule for these modules: [Int.max]/[Int.min]/
   [Int.compare], and no [= None]/[<> None].  Comments and string
   literals are ignored; [= None] as a binding or record field is not a
   comparison and is allowed. *)

let hot_modules =
  [ "lib/core/vm.ml";
    "lib/vkernel/machine.ml";
    "lib/vkernel/spinlock.ml";
    "lib/vkernel/calendar.ml";
    "lib/vkernel/devices.ml";
    "lib/interp/interp.ml";
    "lib/interp/state.ml";
    "lib/interp/scheduler.ml";
    "lib/objmem/heap.ml" ]

(* [src] with comments, string and character literals blanked out
   (newlines kept, so offsets still map to lines). *)
let strip src =
  let n = String.length src in
  let b = Bytes.of_string src in
  (* blank [i, j) and return [j] *)
  let blank i j =
    for k = i to Int.min j n - 1 do
      if Bytes.get b k <> '\n' then Bytes.set b k ' '
    done;
    j
  in
  let at i w =
    i + String.length w <= n && String.sub src i (String.length w) = w
  in
  let rec string_end i =
    if i >= n then n
    else if src.[i] = '\\' then string_end (i + 2)
    else if src.[i] = '"' then i + 1
    else string_end (i + 1)
  in
  let rec code i =
    if i >= n then ()
    else if at i "(*" then comment (blank i (i + 2)) 1
    else if src.[i] = '"' then code (blank i (string_end (i + 1)))
    else if at i "'\\" then
      match String.index_from_opt src (i + 2) '\'' with
      | Some j -> code (blank i (j + 1))
      | None -> ()
    else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then
      code (blank i (i + 3))
    else code (i + 1)
  and comment i depth =
    if i >= n then ()
    else if at i "*)" then
      let j = blank i (i + 2) in
      if depth = 1 then code j else comment j (depth - 1)
    else if at i "(*" then comment (blank i (i + 2)) (depth + 1)
    else if src.[i] = '"' then
      (* a string inside a comment may hold a comment delimiter *)
      comment (blank i (string_end (i + 1))) depth
    else comment (blank i (i + 1)) depth
  in
  code 0;
  Bytes.to_string b

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_space c = c = ' ' || c = '\n' || c = '\t'

let rec skip_space_back s i =
  if i >= 0 && is_space s.[i] then skip_space_back s (i - 1) else i

let rec skip_space s i =
  if i < String.length s && is_space s.[i] then skip_space s (i + 1) else i

let rec ident_start s i =
  if i > 0 && is_ident s.[i - 1] then ident_start s (i - 1) else i

(* the identifier ending at [i] *)
let word_at s i = String.sub s (ident_start s i) (i - ident_start s i + 1)

(* The unqualified identifier ending at [i] is introduced, not compared:
   a [let]/[and] binding, or a record field after [{], [;] or [with]. *)
let binds s i =
  let st = ident_start s i in
  (st = 0 || s.[st - 1] <> '.')
  &&
  let k = skip_space_back s (st - 1) in
  k < 0 || s.[k] = '{' || s.[k] = ';'
  || (is_ident s.[k] && List.mem (word_at s k) [ "let"; "and"; "with" ])

let violations src =
  let s = strip src in
  let n = String.length s in
  let line_of i =
    let l = ref 1 in
    String.iteri (fun k c -> if k < i && c = '\n' then incr l) s;
    !l
  in
  let found = ref [] in
  let add i what = found := (line_of i, what) :: !found in
  let none_after i =
    let j = skip_space s i in
    j + 4 <= n
    && String.sub s j 4 = "None"
    && (j + 4 = n || not (is_ident s.[j + 4]))
  in
  for i = 0 to n - 1 do
    (* [<> None] *)
    if i + 1 < n && s.[i] = '<' && s.[i + 1] = '>' && none_after (i + 2) then
      add i "<> None";
    (* [= None] that is not a binding or record field *)
    if
      s.[i] = '='
      && (i = 0 || not (List.mem s.[i - 1] [ '='; '<'; '>'; '!'; ':' ]))
      && (i + 1 = n || s.[i + 1] <> '=')
      && none_after (i + 1)
    then begin
      let j = skip_space_back s (i - 1) in
      if not (j >= 0 && is_ident s.[j] && binds s j) then add i "= None"
    end;
    (* unqualified (or Stdlib-qualified) max / min / compare *)
    if is_ident s.[i] && (i = 0 || not (is_ident s.[i - 1])) then begin
      let e = ref i in
      while !e < n && is_ident s.[!e] do
        incr e
      done;
      let w = String.sub s i (!e - i) in
      if List.mem w [ "max"; "min"; "compare" ] then begin
        let qualifier =
          if i > 0 && s.[i - 1] = '.' then Some (word_at s (i - 2)) else None
        in
        let label = i > 0 && (s.[i - 1] = '~' || s.[i - 1] = '?') in
        match qualifier with
        | Some "Stdlib" -> add i ("Stdlib." ^ w)
        | Some _ -> ()
        | None -> if not label then add i w
      end
    end
  done;
  List.rev !found

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let show = Alcotest.(list (pair int string))

(* The lint itself: it must see each forbidden form in code and ignore
   comments, strings, labels, qualified calls, bindings and fields. *)
let test_lint_detects () =
  Alcotest.check show "forbidden forms found"
    [ (1, "<> None"); (2, "= None"); (3, "max"); (4, "min");
      (5, "compare"); (6, "Stdlib.max"); (7, "= None") ]
    (violations
       "if x <> None then ()\n\
        while !found = None do () done\n\
        let a = max b c in\n\
        f (min 1 2)\n\
        List.sort compare l\n\
        Stdlib.max 1 2\n\
        let b = t.field = None in")

let test_lint_ignores () =
  Alcotest.check show "nothing found" []
    (violations
       "(* max (* nested min *) x = None *)\n\
        let s = \"max min = None (*\" in\n\
        let c = '\"' in\n\
        let x = None in\n\
        { san = None; machine = None }\n\
        { t with policy = None }\n\
        Int.max a b, Int.min a b, Int.compare a b, f ~max ~min:1\n\
        max_clock m, min_runnable m, vp_max, x == None")

let test_hot_modules_clean () =
  List.iter
    (fun path ->
      Alcotest.check show path []
        (violations (read_file (Filename.concat ".." path))))
    hot_modules

let () =
  Alcotest.run "hotpath"
    [ ("lint",
       [ Alcotest.test_case "detects forbidden forms" `Quick test_lint_detects;
         Alcotest.test_case "ignores comments, strings, bindings" `Quick
           test_lint_ignores;
         Alcotest.test_case "per-event modules are clean" `Quick
           test_hot_modules_clean ]) ]
