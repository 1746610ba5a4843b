(* Sparse perturbation plans: the machinery {!Explore} decision traces and
   {!Fault} plans share.  Both are lists of (query index, perturbation)
   steps sampled from a seed, replayed bit for bit by matching query
   indices, shrunk by delta debugging, and stored one step per line. *)

(* --- the shared PRNG ---

   Stdlib.Random's stream is not guaranteed stable across compiler
   releases, and seeded runs must reproduce forever. *)
module Rng = struct
  type t = { mutable state : int }

  let make seed = { state = (seed * 0x9E3779B9) + 0x1F123BB5 }

  (* The 64-bit splitmix constants, truncated to OCaml's boxed-free int
     width; mixing quality is ample for sampling perturbations. *)
  let next r =
    r.state <- r.state + 0x1E3779B97F4A7C15;
    let z = r.state in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int

  let below r n = if n <= 1 then 0 else next r mod n
  let chance r permil = below r 1000 < permil
end

(* FNV-style mixing.  Masking after every mix equals masking once at the
   end: bit k of a product or xor depends only on bits <= k. *)
let fnv_basis = 0x811C9DC5
let fnv h x = ((h * 0x01000193) lxor x) land max_int

module type STEP = sig
  type value
  type step

  val index : step -> int
  val value : step -> value
  val make : int -> value -> step
  val smaller : value -> value option
  val code : value -> int
  val print : value -> string * int option
  val parse : string * int option -> value option
  val noun : string
  val file : string
  val point : string
end

module Make (S : STEP) = struct
  let sort steps =
    List.sort (fun a b -> Int.compare (S.index a) (S.index b)) steps

  (* --- replay --- *)

  type cursor = { steps : S.step array; mutable pos : int }

  let cursor steps = { steps = Array.of_list (sort steps); pos = 0 }

  (* Queries arrive in ascending order, so the cursor only moves forward. *)
  let next c q =
    let n = Array.length c.steps in
    while c.pos < n && S.index c.steps.(c.pos) < q do c.pos <- c.pos + 1 done;
    if c.pos < n && S.index c.steps.(c.pos) = q then begin
      c.pos <- c.pos + 1;
      Some c.steps.(c.pos - 1)
    end
    else None

  let fingerprint steps =
    List.fold_left
      (fun h s -> fnv (fnv h (S.index s)) (S.code (S.value s)))
      fnv_basis steps

  (* --- shrinking ---

     Classic delta debugging over the step list: try dropping chunks,
     halving the chunk size down to single steps and restarting the scan
     whenever a drop still fails; then shrink the surviving values, pass
     after pass while one still fails.  [run] rebuilds the world and
     replays, so every probe costs a full run — the budget caps the
     total. *)

  let shrink ~run ?(budget = 200) steps =
    let spent = ref 0 in
    let try_run s =
      !spent < budget
      && begin
           incr spent;
           run s
         end
    in
    let rec drop current chunk =
      let n = List.length current in
      let rec scan pos =
        if pos >= n then None
        else
          let candidate =
            List.filteri (fun i _ -> i < pos || i >= pos + chunk) current
          in
          if try_run candidate then Some candidate else scan (pos + chunk)
      in
      if chunk < 1 || !spent >= budget then current
      else
        match scan 0 with
        | Some fewer -> drop fewer (max 1 (min chunk (List.length fewer)))
        | None -> drop current (chunk / 2)
    in
    let rec shrink_values current =
      let next = ref current and again = ref false in
      List.iteri
        (fun i s ->
          match S.smaller (S.value s) with
          | None -> ()
          | Some v ->
              let candidate =
                List.mapi
                  (fun j s' -> if j = i then S.make (S.index s') v else s')
                  !next
              in
              if try_run candidate then begin
                next := candidate;
                again := true
              end)
        current;
      if !again then shrink_values !next else !next
    in
    let result = shrink_values (drop steps (max 1 (List.length steps / 2))) in
    (result, !spent)

  (* --- files: one [KEYWORD INDEX [ARG]] step per line, [#] comments --- *)

  let pp fmt steps =
    List.iter
      (fun s ->
        match S.print (S.value s) with
        | kw, Some a -> Format.fprintf fmt "%s %d %d@." kw (S.index s) a
        | kw, None -> Format.fprintf fmt "%s %d@." kw (S.index s))
      steps

  let save path steps =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc "# mst %s %s v1\n" S.noun S.file;
        Printf.fprintf oc "# %d %s(s); index = %s number\n"
          (List.length steps) S.noun S.point;
        let fmt = Format.formatter_of_out_channel oc in
        pp fmt steps;
        Format.pp_print_flush fmt ())

  let load path =
    let text =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error msg ->
        (* open errors already name the path; read errors do not *)
        failwith
          (if String.starts_with ~prefix:path msg then msg
           else path ^ ": " ^ msg)
    in
    let parse_line lineno line =
      let bad () =
        failwith
          (Printf.sprintf "%s:%d: malformed %s %S" path lineno S.noun line)
      in
      let nat s =
        match int_of_string_opt s with Some n when n >= 0 -> n | _ -> bad ()
      in
      let kw, i, arg =
        match String.split_on_char ' ' line with
        | [ kw; i ] -> (kw, i, None)
        | [ kw; i; a ] -> (kw, i, Some (nat a))
        | _ -> bad ()
      in
      let index = nat i in
      match S.parse (kw, arg) with Some v -> S.make index v | None -> bad ()
    in
    (* steps gather newest-first before the stable sort, so of two steps
       at one index the later line sorts first and is the one replayed *)
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.fold_left
         (fun acc (lineno, line) ->
           if line = "" || line.[0] = '#' then acc
           else parse_line lineno line :: acc)
         []
    |> sort

  (* [load] for a --replay invocation: an empty (or comment-only) file
     would silently replay the unperturbed run and report success for a
     file that reproduces nothing — reject it instead. *)
  let load_replay path =
    match load path with
    | [] ->
        failwith
          (Printf.sprintf "%s: no %ss to replay (empty or comment-only %s)"
             path S.noun S.file)
    | steps -> steps
end
