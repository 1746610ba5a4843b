(* Heap consistency checking, used by the test suite and the property
   tests.  Walks every allocated object and checks structural invariants:

   - headers decode to plausible sizes that tile each space exactly;
   - every scanned pointer field refers to a valid object header (or is a
     SmallInteger);
   - no live object is marked forwarded outside a scavenge;
   - every old-space object with a new-space reference in a scanned field
     carries the remembered flag (the store-check invariant);
   - every remembered flag corresponds to an entry-table entry. *)

open Heap

type problem = { addr : int; what : string }

let pp_problem fmt p = Format.fprintf fmt "@@%d: %s" p.addr p.what

let object_starts h =
  let starts = Hashtbl.create 4096 in
  let walk_region r =
    let a = ref r.base in
    while !a < r.ptr do
      if h.mem.(!a) <> Layout.forwarded_marker && is_filler h !a then begin
        (* dead padding from the parallel scavenger: not an object, but it
           still tiles the region; fillers may be a single word *)
        let sz = size_words h !a in
        if sz < 1 then a := r.ptr else a := !a + sz
      end
      else begin
        Hashtbl.replace starts !a ();
        let sz = size_words h !a in
        if sz < Layout.header_words then (* corrupt; stop this region *)
          a := r.ptr
        else a := !a + sz
      end
    done
  in
  walk_region h.old;
  (match h.policy with
   | Replicated_eden -> Array.iter walk_region h.eden_regions
   | Unlocked | Shared_locked -> walk_region h.eden);
  walk_region (if h.past_is_a then h.surv_a else h.surv_b);
  starts

let check h =
  let problems = ref [] in
  let report addr what = problems := { addr; what } :: !problems in
  (* Replicated eden slices must tile eden exactly: contiguous, starting
     at the eden base, ending at the eden limit — a remainder word lost to
     flooring would silently shrink the allocatable space. *)
  (match h.policy with
   | Replicated_eden ->
       let n = Array.length h.eden_regions in
       if n = 0 then report h.eden.base "replicated eden has no slices"
       else begin
         if h.eden_regions.(0).base <> h.eden.base then
           report h.eden_regions.(0).base
             "first eden slice does not start at the eden base";
         for i = 0 to n - 2 do
           if h.eden_regions.(i).limit <> h.eden_regions.(i + 1).base then
             report h.eden_regions.(i).limit
               "eden slices do not tile (gap or overlap between slices)"
         done;
         if h.eden_regions.(n - 1).limit <> h.eden.limit then
           report h.eden_regions.(n - 1).limit
             "eden slices do not cover eden (remainder words unreachable)"
       end
   | Unlocked | Shared_locked -> ());
  let starts = object_starts h in
  let in_rset = Hashtbl.create 256 in
  for i = 0 to h.rset_len - 1 do
    Hashtbl.replace in_rset h.rset.(i) ()
  done;
  let valid_ptr o =
    Oop.is_small o || Oop.equal o Oop.sentinel
    || Hashtbl.mem starts (Oop.addr o)
  in
  let check_object a =
    if h.mem.(a) = Layout.forwarded_marker then
      report a "forwarded object outside a scavenge"
    else begin
      let sz = size_words h a in
      if sz < Layout.header_words then report a "implausible size";
      let cls = class_at h a in
      if not (valid_ptr cls) || Oop.is_small cls then
        report a "class slot is not a valid object";
      let limit = Scavenger.scan_limit h a in
      let has_new = ref false in
      for i = 0 to limit - 1 do
        let v = h.mem.(a + Layout.header_words + i) in
        if not (valid_ptr v) then
          report a (Printf.sprintf "field %d is a dangling pointer" i);
        if is_new h v then has_new := true
      done;
      if !has_new && a < h.new_base && a >= 2 && not (is_remembered h a) then
        report a "old object with new references is not remembered";
      if is_remembered h a && not (Hashtbl.mem in_rset a) then
        report a "remembered flag set but object absent from entry table"
    end
  in
  Hashtbl.iter (fun a () -> check_object a) starts;
  (* The old-space free lists (E18): every threaded hole must be a filler
     inside the allocated part of old space, of a size matching its
     bucket, and no address may be threaded twice. *)
  let threaded = Hashtbl.create 64 in
  let free_total = ref 0 in
  Array.iteri
    (fun b holes ->
      List.iter
        (fun a ->
          if Hashtbl.mem threaded a then
            report a "address threaded on the free lists twice"
          else Hashtbl.replace threaded a ();
          if a < h.old.base || a >= h.old.ptr then
            report a "free-list entry outside allocated old space"
          else if not (is_filler h a) then
            report a "free-list entry is not a filler"
          else begin
            let sz = size_words h a in
            free_total := !free_total + sz;
            if b < 16 && sz <> b + 2 then
              report a
                (Printf.sprintf "free-list entry of %d words in bucket %d" sz b);
            if b = 16 && sz < 18 then
              report a
                (Printf.sprintf "overflow free-list entry of only %d words" sz)
          end)
        holes)
    h.free_lists;
  if !free_total <> h.free_words then
    report h.old.base
      (Printf.sprintf "free_words is %d but the threaded holes total %d"
         h.free_words !free_total);
  List.rev !problems

(* Reachability versus the mark bitmap: run between mark completion and
   the first sweep slice (marks final, nothing freed yet), this checks
   that the incremental marker — barrier, allocate-black, new-space
   rescan and all — lost no reachable old object.  [marked] is the
   collector's bitmap predicate; [roots] must cover the same roots the
   marker scanned.  Traversal mirrors {!census}: scanned fields only. *)
let check_marked h ~marked ~roots =
  let problems = ref [] in
  let seen = Hashtbl.create 1024 in
  let rec visit o =
    if Oop.is_ptr o && not (Oop.equal o Oop.sentinel)
       && not (Hashtbl.mem seen o)
    then begin
      Hashtbl.add seen o ();
      let a = Oop.addr o in
      if a >= 2 && a < h.new_base && not (marked a) then
        problems :=
          { addr = a; what = "reachable old object is not marked" }
          :: !problems;
      let limit = Scavenger.scan_limit h a in
      for i = 0 to limit - 1 do
        visit h.mem.(a + Layout.header_words + i)
      done;
      visit (class_at h a)
    end
  in
  List.iter visit roots;
  List.rev !problems

(* --- reachable census ---

   The schedule explorer's differential oracle needs a heap observable
   that is invariant across interleavings of the same program.  Whole-
   heap counts are not: scavenge timing, per-processor free-context
   recycling and process migration all shift how much garbage and
   padding each space holds.  What *is* schedule-invariant is the graph
   reachable from stable roots — the same objects exist with the same
   classes and sizes wherever the scheduler happened to put them.  Class
   oops are stable addresses (classes are bootstrapped into old space
   before any run), so grouping by class address is comparable across
   runs of one program.

   The [stop] predicate lets callers fence off parts of the graph that
   are *not* schedule-invariant even though they hang off stable roots:
   Process objects and their suspended context chains legitimately
   differ with the interleaving (a background process preempted earlier
   has run fewer iterations).  Objects satisfying [stop] are neither
   counted nor scanned. *)

type census = {
  objects : int;
  words : int;
  per_class : (int * int) list;  (* class key |-> reachable count *)
}

(* The census's seen set is a mark bitmap, one bit per heap word, cut
   into pages of [2^page_bits] words that are allocated on first touch.
   A census reaches a few thousand objects in a multi-megaword heap; a
   flat bitmap would be allocated and zeroed whole on every call. *)
let page_bits = 14

(* The per-class key defaults to the class oop's address, which is stable
   across runs of one bootstrap but an accident of allocation order
   between different images.  E19 compares censuses across snapshot,
   restore and independently-bootstrapped replicas, where an address is
   exactly the kind of accident the fingerprint must not see, so callers
   there pass [class_key] mapping each class oop to an identity derived
   from its name. *)
let census ?(stop = fun _ -> false) ?class_key h ~roots =
  let pages =
    Array.make ((Array.length h.mem lsr page_bits) + 1) Bytes.empty
  in
  let page a =
    let p = pages.(a lsr page_bits) in
    if Bytes.length p > 0 then p
    else begin
      let p = Bytes.make (1 lsl (page_bits - 3)) '\000' in
      pages.(a lsr page_bits) <- p;
      p
    end
  in
  (* per-class counts by class oop: the distinct classes are few, so a
     linear search beats hashing; keys are applied once, at the end *)
  let classes = ref [||] and counts = ref [||] and distinct = ref 0 in
  let count cls =
    let i = ref 0 in
    while !i < !distinct && !classes.(!i) <> cls do
      incr i
    done;
    if !i = !distinct then begin
      if !i = Array.length !classes then begin
        let grow a = Array.append a (Array.make (!i + 16) 0) in
        classes := grow !classes;
        counts := grow !counts
      end;
      !classes.(!i) <- cls;
      incr distinct
    end;
    !counts.(!i) <- !counts.(!i) + 1
  in
  let objects = ref 0 and words = ref 0 in
  let rec visit o =
    if Oop.is_ptr o && not (Oop.equal o Oop.sentinel) then begin
      let a = Oop.addr o in
      let p = page a in
      let i = (a land ((1 lsl page_bits) - 1)) lsr 3 in
      let bit = 1 lsl (a land 7) in
      let byte = Char.code (Bytes.get p i) in
      if byte land bit = 0 && not (stop o) then begin
        Bytes.set p i (Char.unsafe_chr (byte lor bit));
        incr objects;
        words := !words + size_words h a;
        let cls = class_at h a in
        count cls;
        visit cls;
        let limit = Scavenger.scan_limit h a in
        for i = 0 to limit - 1 do
          visit h.mem.(a + Layout.header_words + i)
        done
      end
    end
  in
  List.iter visit roots;
  (* keys applied once per distinct class; classes sharing a key (every
     non-pointer class under the default key) sum into one entry *)
  let key cls =
    match class_key with
    | Some f -> f cls
    | None -> if Oop.is_ptr cls then Oop.addr cls else -1
  in
  let rec merge = function
    | (k, n) :: (k', n') :: rest when k = k' -> merge ((k, n + n') :: rest)
    | kn :: rest -> kn :: merge rest
    | [] -> []
  in
  let per_class =
    merge
      (List.sort compare
         (List.init !distinct (fun i -> (key !classes.(i), !counts.(i)))))
  in
  { objects = !objects; words = !words; per_class }

let pp_census fmt c =
  Format.fprintf fmt "%d object(s), %d word(s), %d class(es)" c.objects
    c.words (List.length c.per_class)

(* One comparable word per census: FNV-1a over the totals and the sorted
   per-class table.  Combined with [class_key] this is the replica
   fingerprint E19 ships in checkpoint headers and divergence reports —
   equal graphs hash equal regardless of where allocation happened to
   place them. *)
let fingerprint c =
  let mix h d = ((h lxor d) * 0x01000193) land max_int in
  List.fold_left
    (fun h (cls, n) -> mix (mix h cls) n)
    (mix (mix 0x811C9DC5 c.objects) c.words)
    c.per_class
