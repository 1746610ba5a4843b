(* Spans for the traced run: name, start, end, parent and a unit count,
   kept in memory and written out when the run ends.  Spans are recorded
   only around calls the benchmark itself makes into the libraries; with
   tracing off [with_span] is a plain call. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
  mutable count : int;  (** units of work done inside, when known *)
}

let enabled = ref false
let finished : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

let with_span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_spans with s :: _ -> s.id | [] -> 0 in
    let s = { id; parent; name; t0 = now (); t1 = 0.; count = 0 } in
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        finished := { s with t1 = now () } :: !finished)
      f
  end

(* Set the unit count of the innermost open span. *)
let count n =
  match !open_spans with s :: _ -> s.count <- n | [] -> ()

let duration s = s.t1 -. s.t0

let named name = List.filter (fun s -> s.name = name) (List.rev !finished)

let with_prefix p =
  List.filter
    (fun s -> String.starts_with ~prefix:p s.name)
    (List.rev !finished)

let total spans = List.fold_left (fun a s -> a +. duration s) 0. spans

let total_count spans = List.fold_left (fun a s -> a + s.count) 0 spans

(* Time not covered by child spans. *)
let self_time s =
  let kids = List.filter (fun k -> k.parent = s.id) !finished in
  duration s -. total kids

let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \
         \"end\": %.6f, \"self\": %.6f, \"count\": %d}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.name s.t0 s.t1 (self_time s) s.count)
    (List.rev !finished);
  output_string oc "\n]\n";
  close_out oc
