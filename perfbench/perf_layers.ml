(* The traced run's per-layer numbers: one traced pass of every workload,
   the layer probes (tight loops over prepared state, each reporting host
   ns per unit with its iteration count), and the self-check that the
   reference comparison has teeth.  Every probe runs here only, never
   inside a timed workload. *)

open Perf_workloads

let span = Perf_spans.with_span

(* Metrics in the order they are printed: name, value, unit. *)
let metrics : (string * float * string) list ref = ref []

let put name unit_ v = metrics := (name, v, unit_) :: !metrics

(* Iteration counts of the probes, printed beside the results. *)
let notes : string list ref = ref []

let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let ms s = s *. 1000.

let spans_median name =
  Perf_spans.median (List.map Perf_spans.duration (Perf_spans.named name))

(* --- probes --- *)

let sends (vm : Vm.t) =
  Array.fold_left (fun a (st : State.t) -> a + st.State.sends) 0 vm.Vm.states

(* Evaluate [src] once on [vm]; host ns per unit, where [units] reads the
   units done from the bytecode and send deltas. *)
let eval_probe name vm ~src ~iterations ~units =
  Gc.full_major ();
  let s0 = steps vm and n0 = sends vm in
  let t0 = Unix.gettimeofday () in
  span name (fun () -> ignore (Vm.eval vm src));
  let dt = Unix.gettimeofday () -. t0 in
  let u = units ~bytecodes:(steps vm - s0) ~sends:(sends vm - n0) in
  note "%s: %d iterations, %d units, %d bytecodes" name iterations u
    (steps vm - s0);
  put name "ns" (dt *. 1e9 /. float_of_int u)

let per_bytecode ~bytecodes ~sends:_ = bytecodes
let per_send ~bytecodes:_ ~sends = sends
let per_iteration n ~bytecodes:_ ~sends:_ = n

let jump_loop n = Printf.sprintf "| k | k := 0. 1 to: %d do: [:i | k := i]. k" n

let calendar_tweak c = { c with Config.engine = Config.Engine_calendar }

let vm_probes () =
  let uni = Macro.prepare_vm Macro.Ms_uni in
  eval_probe "probe.dispatch_ns" uni ~src:(jump_loop 200_000)
    ~iterations:200_000 ~units:per_bytecode;
  eval_probe "probe.send_ns" uni
    ~src:"1 to: 20000 do: [:i | i printString]. 0" ~iterations:20_000
    ~units:per_send;
  eval_probe "probe.alloc_ns" uni
    ~src:"1 to: 200000 do: [:i | Array new: 8]. 0" ~iterations:200_000
    ~units:(per_iteration 200_000);
  eval_probe "probe.scan5_idle_ns"
    (Macro.prepare_vm Macro.Ms_idle)
    ~src:(jump_loop 60_000) ~iterations:60_000 ~units:per_bytecode;
  eval_probe "probe.calendar_ns"
    (Macro.prepare_vm ~config_tweak:calendar_tweak Macro.Ms_uni)
    ~src:(jump_loop 200_000) ~iterations:200_000 ~units:per_bytecode

(* A host loop of [n] iterations of [f]; ns per iteration. *)
let loop_probe name n f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  span name (fun () ->
      for i = 1 to n do
        f i
      done);
  let dt = Unix.gettimeofday () -. t0 in
  note "%s: %d iterations" name n;
  put name "ns" (dt *. 1e9 /. float_of_int n)

let kernel_probes () =
  let mc = Method_cache.create_replicated () in
  let sel = Oop.of_small 7 and cls = Oop.of_small 9 in
  ignore (Method_cache.fill mc ~now:0 ~sel ~cls ~meth:(Oop.of_small 11));
  loop_probe "probe.method_cache_ns" 1_000_000 (fun _ ->
      ignore (Sys.opaque_identity (Method_cache.probe mc ~now:0 ~sel ~cls)));
  if Method_cache.hits mc < 1_000_000 then
    mismatch "method cache probe missed";
  let lock = Spinlock.make ~enabled:true ~cost:Cost_model.firefly "probe" in
  let clock = ref 0 in
  loop_probe "probe.spinlock_op_ns" 1_000_000 (fun _ ->
      clock := Spinlock.locked_op lock ~now:!clock ~op_cycles:10);
  let cal = Calendar.create () in
  for i = 1 to 64 do
    Calendar.add cal ~key:(i * 37 mod 101) i
  done;
  loop_probe "probe.calendar_op_ns" 1_000_000 (fun i ->
      match Calendar.pop cal with
      | Some (k, v) -> Calendar.add cal ~key:(k + 1 + (i * 7919 mod 97)) v
      | None -> ())

let array_class (vm : Vm.t) =
  match Universe.get_global vm.Vm.u "Array" with
  | Some c -> c
  | None -> failwith "probe: no Array class"

(* [Heap.alloc_new] until eden fills, then an untimed scavenge. *)
let alloc_new_probe () =
  let vm = Vm.create (Config.ms ~processors:1 ()) in
  let heap = vm.Vm.heap and cls = array_class vm in
  let target = 1_000_000 in
  let done_ = ref 0 and busy = ref 0. in
  Gc.full_major ();
  span "probe.alloc_new_ns" (fun () ->
      while !done_ < target do
        let t0 = Unix.gettimeofday () in
        (try
           while !done_ < target do
             ignore (Heap.alloc_new heap ~vp:0 ~slots:8 ~raw:false ~cls ());
             incr done_
           done
         with Heap.Scavenge_needed -> ());
        busy := !busy +. (Unix.gettimeofday () -. t0);
        if !done_ < target then ignore (Scavenger.scavenge heap)
      done);
  note "probe.alloc_new_ns: %d allocations" target;
  put "probe.alloc_new_ns" "ns" (!busy *. 1e9 /. float_of_int target)

(* [Scavenger.scavenge] over a rooted live set that never tenures, so
   every scavenge copies the same words. *)
let scavenge_probe () =
  let vm =
    Vm.create { (Config.ms ~processors:1 ()) with Config.tenure_age = max_int }
  in
  ignore
    (Vm.eval vm
       "PerfKeep := Array new: 200. 1 to: 200 do: [:i | PerfKeep at: i put: \
        (Array new: 8)]. 0");
  let heap = vm.Vm.heap in
  let n = 1000 and words = ref 0 in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  span "probe.scavenge_ns_per_word" (fun () ->
      for _ = 1 to n do
        let s = Scavenger.scavenge heap in
        words := !words + s.Heap.survivor_words + s.Heap.tenured_words
      done);
  let dt = Unix.gettimeofday () -. t0 in
  note "probe.scavenge_ns_per_word: %d scavenges, %d words" n !words;
  put "probe.scavenge_ns_per_word" "ns"
    (dt *. 1e9 /. float_of_int (max 1 !words))

(* Host time of [Vm.do_major_slice] while a cycle is in flight, on the
   gc-churn configuration after a short churn has tenured garbage. *)
let major_slice_probe () =
  let vm = Vm.create (gc_config ~cost:Cost_model.firefly) in
  Vm.load_classes vm churn_classes;
  ignore (Vm.eval vm "GcChurn new churn: 5000");
  let mj = major_of vm in
  let target = Major.cycles_completed mj + 2 in
  let slices = ref [] and guard = ref 0 in
  while Major.cycles_completed mj < target && !guard < 100_000 do
    incr guard;
    let mid = Major.active mj in
    let t0 = Unix.gettimeofday () in
    span "major.slice" (fun () -> Vm.do_major_slice vm mj);
    if mid then slices := (Unix.gettimeofday () -. t0) :: !slices
  done;
  note "major.slice_us: %d mid-cycle slices" (List.length !slices);
  put "major.slice_us" "us" (Perf_spans.median !slices *. 1e6)

let vm_bootstrap () =
  for _ = 1 to 5 do
    let vm =
      span "layer.vm.create" (fun () -> Vm.create (Config.ms ~processors:5 ()))
    in
    span "layer.vm.load_classes" (fun () ->
        Vm.load_classes vm Macro.benchmark_classes)
  done;
  put "vm.create_ms" "ms" (ms (spans_median "layer.vm.create"));
  put "vm.load_classes_ms" "ms" (ms (spans_median "layer.vm.load_classes"))

(* --- counters of the traced workload passes --- *)

let table2_layers vms =
  let cell_spans ~state ~bench =
    List.filter
      (fun (s : Perf_spans.span) ->
        match String.split_on_char '/' s.Perf_spans.name with
        | [ "macro.run_on"; st; b ] ->
            (state = "" || st = state) && (bench = "" || b = bench)
        | _ -> false)
      (Perf_spans.with_prefix "macro.run_on/")
  in
  let bytecodes state = Perf_spans.total_count (cell_spans ~state ~bench:"") in
  List.iter
    (fun st ->
      let k = state_key st in
      let spans = cell_spans ~state:k ~bench:"" in
      put
        ("table2.ns_per_bytecode." ^ k)
        "ns"
        (Perf_spans.total spans *. 1e9
        /. float_of_int (Perf_spans.total_count spans)))
    Macro.all_states;
  List.iter
    (fun (b : Macro.benchmark) ->
      put
        ("table2.wall_s." ^ b.Macro.key)
        "s"
        (Perf_spans.total (cell_spans ~state:"" ~bench:b.Macro.key)))
    table2_benchmarks;
  (* the benchmark's own bytecodes are the baseline state's *)
  List.iter
    (fun k ->
      put
        ("table2.background_bytecode_share." ^ k)
        "ratio"
        (1. -. ratio (bytecodes "baseline") (bytecodes k)))
    [ "ms_idle"; "ms_busy" ];
  let reports = List.map Instrumentation.gather vms in
  let interps = List.concat_map (fun r -> r.Instrumentation.interps) reports in
  let locks = List.concat_map (fun r -> r.Instrumentation.locks) reports in
  let open Instrumentation in
  let steps = sum_by (fun i -> i.steps) interps in
  put "interp.bytecodes" "count" (float_of_int steps);
  put "interp.sends" "count" (float_of_int (sum_by (fun i -> i.sends) interps));
  put "method_cache.hit_ratio" "ratio"
    (ratio
       (sum_by (fun i -> i.cache_hits) interps)
       (sum_by (fun i -> i.cache_hits + i.cache_misses) interps));
  put "free_contexts.reuse_ratio" "ratio"
    (ratio
       (sum_by (fun i -> i.ctx_reuses) interps)
       (sum_by (fun i -> i.ctx_reuses + i.ctx_fresh) interps));
  put "scheduler.switches" "count"
    (float_of_int (sum_by (fun i -> i.switches) interps));
  let acq = sum_by (fun l -> l.acquisitions) locks in
  put "spinlock.acquisitions" "count" (float_of_int acq);
  put "spinlock.contended_ratio" "ratio"
    (ratio (sum_by (fun l -> l.contended) locks) acq);
  let cycles = sum_by (fun r -> r.total_cycles) reports in
  let vp_cycles =
    List.fold_left2
      (fun a r (vm : Vm.t) -> a + (r.total_cycles * Array.length vm.Vm.states))
      0 reports vms
  in
  put "sim.cycles_per_bytecode" "cycles" (ratio cycles steps);
  put "sim.spin_share" "ratio"
    (ratio (sum_by (fun l -> l.spin_cycles) locks) vp_cycles);
  put "sim.scavenge_share" "ratio"
    (ratio (sum_by (fun r -> r.scavenge_cycles) reports) cycles)

(* Object-memory counters summed over every traced pass's VMs: gc-churn
   tenures at age 1, so only the other workloads copy survivors. *)
let objmem_layers vms =
  let reports = List.map Instrumentation.gather vms in
  let total f = float_of_int (sum_by f reports) in
  let open Instrumentation in
  put "objmem.scavenges" "count" (total (fun r -> r.scavenges));
  put "objmem.words_allocated" "count" (total (fun r -> r.words_allocated));
  put "objmem.words_copied" "count" (total (fun r -> r.words_copied));
  put "objmem.words_tenured" "count" (total (fun r -> r.words_tenured))

let major_layers (vm : Vm.t) =
  let mj = major_of vm in
  put "major.cycles" "count" (float_of_int (Major.cycles_completed mj));
  put "major.slices" "count" (float_of_int (Major.slices mj));
  put "major.reclaimed_words" "count" (float_of_int (Major.reclaimed_words mj));
  put "major.barrier_greys" "count" (float_of_int (Major.barrier_greys mj));
  put "heap.free_list_hits" "count"
    (float_of_int (Heap.free_list_hits vm.Vm.heap));
  put "sim.major_share" "ratio"
    (ratio (Major.slice_cycles_total mj) (Vm.cycles vm))

let server_layers (stats : Server.stats) =
  let events = stats.Server.engine_events in
  put "vm.engine_events" "count" (float_of_int events);
  put "vm.events_per_bytecode" "ratio" (ratio events stats.Server.steps);
  put "vm.parks" "count" (float_of_int stats.Server.parks);
  put "vm.host_ns_per_event" "ns"
    (Perf_spans.total (Perf_spans.named "server.run")
    *. 1e9 /. float_of_int events)

let cluster_layers ~seed (o : Replica.outcome) =
  let d = Perf_cluster.drive_once ~seed in
  if not d.Perf_cluster.converged then
    mismatch "cluster drive seed %d: a replica's fingerprint differs" seed;
  let med name = ms (spans_median name) in
  let waves =
    List.map Perf_spans.duration (Perf_spans.named "replica.apply_wave")
  in
  put "replica.build_node_ms" "ms" (med "replica.build_node");
  put "replica.apply_wave_ms_p50" "ms" (ms (Perf_spans.quantile 0.5 waves));
  put "replica.apply_wave_ms_p90" "ms" (ms (Perf_spans.quantile 0.9 waves));
  put "replica.fingerprint_ms" "ms" (med "replica.fingerprint");
  List.iter
    (fun s -> put ("snapshot." ^ s ^ "_ms") "ms" (med ("snapshot." ^ s)))
    [ "capture"; "save"; "load"; "restore" ];
  put "snapshot.bytes" "bytes" (float_of_int d.Perf_cluster.snapshot_bytes);
  List.iter
    (fun s -> put ("cmdlog." ^ s ^ "_ms") "ms" (med ("cmdlog." ^ s)))
    [ "save"; "load"; "schedule" ];
  put "replica.waves" "count" (float_of_int o.Replica.waves);
  put "replica.rejoins" "count" (float_of_int o.Replica.rejoins);
  put "replica.max_rejoin_lag" "count" (float_of_int o.Replica.max_rejoin_lag);
  d

(* The reference comparison must fail a run whose cost model is off by a
   cycle per dispatch.  True when every checked workload failed it. *)
let self_check () =
  let cm = Cost_model.firefly in
  let cost = { cm with Cost_model.dispatch = cm.Cost_model.dispatch + 1 } in
  let cells, _, _, _, _ = table2_run ~states:[ Macro.Baseline ] ~cost () in
  let saved = !mismatches in
  let t2 = List.length (List.filter (fun c -> not (check_cell c)) cells) in
  let sv = (server_pass ~cost).failed in
  let gc = (gc_pass ~cost).failed in
  mismatches := saved;
  note "self-check (perturbed cost model): failed ops table2 %d/%d, server \
        %d, gc-churn %d"
    t2 (List.length cells) sv gc;
  put "selfcheck.perturbed_failed_ops" "count" (float_of_int (t2 + sv + gc));
  t2 > 0 && sv > 0 && gc > 0

type suite = { ops : int; failed : int; teeth : bool }

(* Every per-layer metric; [ops]/[failed] count the suite's own checked
   passes. *)
let run ~seed =
  let cost = Cost_model.firefly in
  let t2 = span "suite.table2" (fun () -> table2_pass ~cost) in
  table2_layers t2.vms;
  let sv_vm, stats, _, _ = span "suite.server" (fun () -> server_run ~cost) in
  let sv_failed = server_failed stats in
  server_layers stats;
  let gc = span "suite.gc" (fun () -> gc_pass ~cost) in
  major_layers (List.hd gc.vms);
  objmem_layers ((sv_vm :: t2.vms) @ gc.vms);
  let study_ok = check_pause_study () in
  let seed = List.hd (cluster_seeds seed) in
  let outcomes, _, _ =
    span "suite.cluster" (fun () -> cluster_run ~seeds:[ seed ])
  in
  let o = List.hd outcomes in
  let d = cluster_layers ~seed o in
  span "suite.probes" (fun () ->
      vm_probes ();
      kernel_probes ();
      alloc_new_probe ();
      scavenge_probe ();
      major_slice_probe ();
      vm_bootstrap ());
  let teeth = span "suite.self_check" self_check in
  let cl_ops = cluster_ops o in
  let cl_failed =
    if d.Perf_cluster.converged then cluster_failed ~seed o else cl_ops
  in
  { ops = t2.ops + stats.Server.offered + gc.ops + 1 + cl_ops;
    failed =
      t2.failed + sv_failed + gc.failed
      + (if study_ok then 0 else 1)
      + cl_failed;
    teeth }
