(* Host-time benchmark of the simulator.

     main.exe --workload table2|server|gc-churn|cluster --seed N
              --seconds S --trace 0|1
     main.exe --record      print a fresh perf_reference.ml

   A run repeats its workload's pass until [--seconds] have elapsed and
   reports medians over the passes, with times scaled to the reference
   host speed of [Perf_calib].  With --trace 0 it reports the
   end-to-end metrics; with --trace 1 it runs every layer measurement of
   [Perf_layers], then alternates untraced and traced passes of the
   workload for [trace.overhead], and writes its spans under
   .perfbench_out/.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Only the cluster
   workload has random input (its log and crash plan come from --seed);
   the other three ignore the seed. *)

open Perf_workloads

let workloads = [ "table2"; "server"; "gc-churn"; "cluster" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload table2|server|gc-churn|cluster --seed N \
     --seconds S --trace 0|1 | --record";
  exit 2

(* One pass of [workload].  The cluster's bytecode count comes from the
   benchmark's own drive of the same logs, made once per run. *)
let pass_fn ~workload ~seed ~cost =
  match workload with
  | "table2" -> fun () -> table2_pass ~cost
  | "server" -> fun () -> server_pass ~cost
  | "gc-churn" -> fun () -> gc_pass ~cost
  | "cluster" ->
      let bytecodes =
        sum_by
          (fun seed -> (Perf_cluster.drive_once ~seed).Perf_cluster.bytecodes)
          (cluster_seeds seed)
      in
      fun () -> cluster_pass ~seed ~bytecodes
  | _ -> usage ()

(* Passes until [seconds] have elapsed, at least [min_passes]. *)
let repeat ~seconds ?(min_passes = 1) f =
  let t_end = Unix.gettimeofday () +. seconds in
  let rec go n acc =
    let acc = f () :: acc in
    if n + 1 >= min_passes && Unix.gettimeofday () >= t_end then List.rev acc
    else go (n + 1) acc
  in
  go 0 []

(* A pass between two runs of the calibration loop; the VMs are dropped
   so that passes do not pile up in memory. *)
let calibrated pass () =
  let p = Perf_calib.around pass in
  { p with vms = [] }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, u) -> Printf.printf "  %-44s %16.6f %s\n" name v u)
    metrics;
  Printf.printf "  %-44s %16d\n  %-44s %16d\n" "ops" attempted "ops_failed"
    failed;
  let fields =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

let report_mismatches () =
  List.iteri
    (fun i m -> if i < 10 then prerr_endline ("mismatch: " ^ m))
    (List.rev !mismatches)

let end_to_end ~workload ~seed ~seconds =
  let pass = calibrated (pass_fn ~workload ~seed ~cost:Cost_model.firefly) in
  let passes =
    repeat ~seconds (fun () ->
        let p = pass () in
        (p, peak_rss_mb ()))
  in
  let med f = Perf_spans.median (List.map f passes) in
  let k = Perf_calib.factor () in
  let attempted = sum_by (fun (p, _) -> p.ops) passes in
  let failed = sum_by (fun (p, _) -> p.failed) passes in
  Printf.printf "workload %s, seed %d, %d pass(es), tracing off\n" workload seed
    (List.length passes);
  report_mismatches ();
  print_result ~correct:(failed = 0) ~attempted ~failed
    [ ("wall_s", k *. med (fun (p, _) -> p.wall), "s");
      ("setup_s", k *. med (fun (p, _) -> p.setup), "s");
      ( "ns_per_bytecode",
        k *. med (fun (p, _) -> p.wall *. 1e9 /. float_of_int p.bytecodes),
        "ns" );
      ("peak_rss_mb", med snd, "MB") ]

let traced ~workload ~seed ~seconds =
  Perf_spans.enabled := true;
  let suite = Perf_layers.run ~seed in
  (* untraced and traced passes alternate, so drift hits both alike *)
  let pass = calibrated (pass_fn ~workload ~seed ~cost:Cost_model.firefly) in
  let pairs =
    repeat ~seconds ~min_passes:2 (fun () ->
        Perf_spans.enabled := false;
        let off = pass () in
        Perf_spans.enabled := true;
        let on = Perf_spans.with_span ("overhead." ^ workload) pass in
        (off, on))
  in
  let med f = Perf_spans.median (List.map f pairs) in
  let overhead =
    (med (fun (_, on) -> on.wall) /. med (fun (off, _) -> off.wall)) -. 1.
  in
  Perf_layers.put "trace.overhead" "ratio" overhead;
  Perf_layers.put "host.speed_factor" "ratio" (Perf_calib.factor ());
  let pair_sum f = List.fold_left (fun a (x, y) -> a + f x + f y) 0 pairs in
  let attempted = suite.Perf_layers.ops + pair_sum (fun p -> p.ops) in
  let failed = suite.Perf_layers.failed + pair_sum (fun p -> p.failed) in
  mkdir_p ".perfbench_out";
  let spans_file =
    Filename.concat ".perfbench_out"
      (Printf.sprintf "spans-%s-%d.json" workload seed)
  in
  Perf_spans.write spans_file;
  Printf.printf "workload %s, seed %d, traced, %d pass pair(s); spans in %s\n"
    workload seed (List.length pairs) spans_file;
  List.iter (fun n -> Printf.printf "  %s\n" n) (List.rev !Perf_layers.notes);
  report_mismatches ();
  if not suite.Perf_layers.teeth then
    prerr_endline "self-check: a perturbed cost model went undetected";
  print_result
    ~correct:(failed = 0 && suite.Perf_layers.teeth)
    ~attempted ~failed
    (List.rev !Perf_layers.metrics)

(* Print perf_reference.ml from the outputs of this build. *)
let record () =
  let cost = Cost_model.firefly in
  let cells, _, _, _, _ = table2_run ~cost () in
  let _, stats, _, _ = server_run ~cost in
  let vm, _, _, bytecodes = gc_run ~cost in
  let s = server_out stats and g = gc_out vm ~bytecodes in
  print_string
    "(* Simulated outputs of the benchmark's workloads, recorded with\n\
    \   [main.exe --record] on the commit that introduced the benchmark.\n\
    \   A host-only change must reproduce them bit for bit. *)\n\n\
     type cell = {\n\
    \  state : string;\n  bench : string;\n  cycles : int;\n\
    \  scavenges : int;\n  bytecodes : int;\n}\n\n\
     type server = {\n\
    \  offered : int;\n  completed : int;\n  p50 : int;\n  p99 : int;\n\
    \  run_cycles : int;\n  steps : int;\n}\n\n\
     type gc = {\n\
    \  gc_cycles : int;\n  gc_slices : int;\n  gc_overruns : int;\n\
    \  gc_forced : int;\n  gc_reclaimed_objects : int;\n\
    \  gc_reclaimed_words : int;\n  gc_free_list_hits : int;\n\
    \  gc_free_reused_words : int;\n  gc_barrier_greys : int;\n\
    \  gc_scavenges : int;\n  gc_bytecodes : int;\n}\n\n\
     let table2 =\n  [\n";
  List.iter
    (fun (c : Perf_reference.cell) ->
      Printf.printf
        "    { state = %S; bench = %S; cycles = %d; scavenges = %d; \
         bytecodes = %d };\n"
        c.state c.bench c.cycles c.scavenges c.bytecodes)
    cells;
  Printf.printf
    "  ]\n\n\
     let server =\n\
    \  { offered = %d; completed = %d; p50 = %d; p99 = %d; run_cycles = %d;\n\
    \    steps = %d }\n\n"
    s.offered s.completed s.p50 s.p99 s.run_cycles s.steps;
  Printf.printf
    "let gc =\n\
    \  { gc_cycles = %d; gc_slices = %d; gc_overruns = %d; gc_forced = %d;\n\
    \    gc_reclaimed_objects = %d; gc_reclaimed_words = %d;\n\
    \    gc_free_list_hits = %d; gc_free_reused_words = %d;\n\
    \    gc_barrier_greys = %d; gc_scavenges = %d; gc_bytecodes = %d }\n"
    g.gc_cycles g.gc_slices g.gc_overruns g.gc_forced g.gc_reclaimed_objects
    g.gc_reclaimed_words g.gc_free_list_hits g.gc_free_reused_words
    g.gc_barrier_greys g.gc_scavenges g.gc_bytecodes

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref 0 and recording = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--record" :: rest -> recording := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !recording then record ()
  else begin
    if not (List.mem !workload workloads) then usage ();
    if !trace = 1 then traced ~workload:!workload ~seed:!seed ~seconds:!seconds
    else end_to_end ~workload:!workload ~seed:!seed ~seconds:!seconds
  end
