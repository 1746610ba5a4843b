(* The four workloads.  One call of a [*_pass] function bootstraps its
   VMs (timed as set-up), runs the timed phase, and checks the simulated
   outputs against the reference recorded in [Perf_reference]: a mismatch
   counts as failed ops, never as a metric move. *)

let now = Unix.gettimeofday
let span = Perf_spans.with_span

type pass = {
  setup : float;  (** host seconds bootstrapping VMs, excluded from [wall] *)
  wall : float;  (** host seconds of the timed phase *)
  bytecodes : int;  (** simulated bytecodes the timed phase executed *)
  ops : int;
  failed : int;
  vms : Vm.t list;  (** for the traced run's counters *)
}

(* Mismatches seen so far, reported on stderr at the end of the run. *)
let mismatches : string list ref = ref []

let mismatch fmt =
  Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt

(* Between passes: collect the previous pass's VMs, then restart the
   kernel's peak-RSS counter so each pass reports its own peak. *)
let settle () =
  Gc.full_major ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum_by f xs = List.fold_left (fun a x -> a + f x) 0 xs

let steps (vm : Vm.t) =
  Array.fold_left (fun a (st : State.t) -> a + st.State.steps) 0 vm.Vm.states

(* --- table2: the paper's 8 macro benchmarks x 4 system states --- *)

(* Repetitions divided as in [bench table2 --quick], so that several
   passes fit in one run. *)
let table2_reps_divisor = 6

let table2_benchmarks =
  List.map
    (fun (b : Macro.benchmark) ->
      { b with Macro.reps = max 1 (b.Macro.reps / table2_reps_divisor) })
    Macro.benchmarks

let state_key = function
  | Macro.Baseline -> "baseline"
  | Macro.Ms_uni -> "ms"
  | Macro.Ms_idle -> "ms_idle"
  | Macro.Ms_busy -> "ms_busy"

let table2_run ?(states = Macro.all_states) ~cost () =
  settle ();
  let tweak c = { c with Config.cost } in
  let vms, setup =
    timed (fun () ->
        List.map
          (fun st ->
            ( st,
              span
                ("macro.prepare_vm/" ^ state_key st)
                (fun () -> Macro.prepare_vm ~config_tweak:tweak st) ))
          states)
  in
  let before = List.map (fun (_, vm) -> steps vm) vms in
  let cells, wall =
    timed (fun () ->
        List.concat_map
          (fun (st, vm) ->
            List.map
              (fun (b : Macro.benchmark) ->
                let name =
                  Printf.sprintf "macro.run_on/%s/%s" (state_key st)
                    b.Macro.key
                in
                span name (fun () ->
                    let s0 = steps vm in
                    let c = Macro.run_on vm b in
                    let n = steps vm - s0 in
                    Perf_spans.count n;
                    { Perf_reference.state = state_key st;
                      bench = b.Macro.key;
                      cycles = c.Macro.cycles;
                      scavenges = c.Macro.scavenges;
                      bytecodes = n }))
              table2_benchmarks)
          vms)
  in
  let bytecodes =
    List.fold_left2 (fun a (_, vm) s0 -> a + steps vm - s0) 0 vms before
  in
  (cells, setup, wall, bytecodes, List.map snd vms)

let check_cell (c : Perf_reference.cell) =
  match
    List.find_opt
      (fun (r : Perf_reference.cell) -> r.state = c.state && r.bench = c.bench)
      Perf_reference.table2
  with
  | Some r when r = c -> true
  | Some r ->
      mismatch
        "table2 %s/%s: cycles %d scavenges %d bytecodes %d, reference %d %d %d"
        c.state c.bench c.cycles c.scavenges c.bytecodes r.cycles r.scavenges
        r.bytecodes;
      false
  | None ->
      mismatch "table2 %s/%s: no reference" c.state c.bench;
      false

let table2_pass ~cost =
  let cells, setup, wall, bytecodes, vms = table2_run ~cost () in
  let failed = List.length (List.filter (fun c -> not (check_cell c)) cells) in
  { setup; wall; bytecodes; ops = List.length cells; failed; vms }

(* --- server: the E17 image server on the calendar engine --- *)

let server_params =
  { Server.default_params with
    Server.sessions = 32;
    workers = 8;
    requests = 4;
    think_ms = 10_000;
    loop = Server.Closed }

let server_config ~cost =
  { (Config.ms ~processors:64 ~cost ()) with
    Config.engine = Config.Engine_calendar }

(* [Server.run] bootstraps its VM inside the call, so its [wall] includes
   one bootstrap; [setup] times the same bootstrap outside it. *)
let server_bootstrap config =
  span "server.bootstrap" (fun () ->
      let vm = span "vm.create" (fun () -> Vm.create config) in
      span "vm.load_classes" (fun () ->
          Vm.load_classes vm Macro.benchmark_classes;
          Vm.load_classes vm Server.server_classes))

let server_out (s : Server.stats) : Perf_reference.server =
  { Perf_reference.offered = s.Server.offered;
    completed = s.Server.completed;
    p50 = s.Server.latency.Server.p50;
    p99 = s.Server.latency.Server.p99;
    run_cycles = s.Server.run_cycles;
    steps = s.Server.steps }

let server_run ~cost =
  settle ();
  let config = server_config ~cost in
  let (), setup = timed (fun () -> server_bootstrap config) in
  let (vm, stats), wall =
    timed (fun () ->
        span "server.run" (fun () ->
            let r = Server.run config server_params in
            Perf_spans.count (snd r).Server.engine_events;
            r))
  in
  (vm, stats, setup, wall)

(* Failed ops of one server run: all of them when a simulated output
   differs from the reference, else the requests left uncompleted. *)
let server_failed (stats : Server.stats) =
  let out = server_out stats and r = Perf_reference.server in
  if out <> r then begin
    mismatch
      "server: offered %d completed %d p50 %d p99 %d run_cycles %d steps %d, \
       reference %d %d %d %d %d %d"
      out.offered out.completed out.p50 out.p99 out.run_cycles out.steps
      r.offered r.completed r.p50 r.p99 r.run_cycles r.steps;
    stats.Server.offered
  end
  else stats.Server.offered - stats.Server.completed

let server_pass ~cost =
  let vm, stats, setup, wall = server_run ~cost in
  { setup; wall; bytecodes = stats.Server.steps; ops = stats.Server.offered;
    failed = server_failed stats; vms = [ vm ] }

(* --- gc-churn: the E18 pause study --- *)

(* The configuration and churn loop of [Gc_study.pause_study], driven
   here step by step so that bootstrap stays out of the timed phase and
   the VM stays visible to the counters.  The traced run checks that
   [Gc_study.pause_study] itself still matches the same reference. *)
let gc_iterations = 30_000

let gc_config ~cost =
  { (Config.ms ~processors:4 ~cost ()) with
    Config.eden_words = 2048;
    survivor_words = 1024;
    tenure_age = 1;
    old_words = 256 * 1024;
    major_enabled = true }

let churn_classes =
  {st|
CLASS GcChurn SUPER Object
METHODS GcChurn
churn: n
    "allocate continuously, keeping a window of recent objects live so
     every scavenge has real survivors to copy"
    | keep p |
    keep := Array new: 300.
    1 to: n do: [:i |
        p := Point x: i y: i.
        (Array new: 16) at: 1 put: p.
        keep at: i \\ 300 + 1 put: (Array with: p with: i)].
    ^n
!
spawnChurn: n done: sem
    [ self churn: n. sem signal ] fork
!
|st}

let major_of (vm : Vm.t) =
  match vm.Vm.major with
  | Some mj -> mj
  | None -> failwith "gc-churn: collector not configured"

(* Gc_study's nearest-rank percentile over slice costs. *)
let percentile costs p =
  let a = Array.of_list costs in
  Array.sort compare a;
  match Array.length a with 0 -> 0 | n -> a.(min (n - 1) (p * n / 100))

let gc_out (vm : Vm.t) ~bytecodes : Perf_reference.gc =
  let mj = major_of vm in
  { Perf_reference.gc_cycles = Major.cycles_completed mj;
    gc_slices = Major.slices mj;
    gc_overruns = Major.overruns mj;
    gc_forced = Major.forced_completions mj;
    gc_reclaimed_objects = Major.reclaimed_objects mj;
    gc_reclaimed_words = Major.reclaimed_words mj;
    gc_free_list_hits = Heap.free_list_hits vm.Vm.heap;
    gc_free_reused_words = Heap.free_reused_words vm.Vm.heap;
    gc_barrier_greys = Major.barrier_greys mj;
    gc_scavenges = List.length vm.Vm.scavenge_pause_costs;
    gc_bytecodes = bytecodes }

let gc_run ~cost =
  settle ();
  let vm, setup =
    timed (fun () ->
        let vm = span "vm.create" (fun () -> Vm.create (gc_config ~cost)) in
        span "vm.load_classes" (fun () -> Vm.load_classes vm churn_classes);
        vm)
  in
  let s0 = steps vm in
  let (), wall =
    timed (fun () ->
        span "gc.churn" (fun () ->
            let src = Printf.sprintf "GcChurn new churn: %d" gc_iterations in
            (match Vm.run ~watch:(Vm.spawn vm src) vm with
             | Vm.Finished _ -> ()
             | Vm.Deadlock | Vm.Cycle_limit ->
                 failwith "gc-churn: run did not finish");
            Perf_spans.count (steps vm - s0)))
  in
  (vm, setup, wall, steps vm - s0)

let gc_pass ~cost =
  let vm, setup, wall, bytecodes = gc_run ~cost in
  let out = gc_out vm ~bytecodes in
  let mj = major_of vm in
  let p95 = percentile (Major.slice_costs mj) 95 in
  let ok_ref = out = Perf_reference.gc in
  if not ok_ref then
    mismatch "gc-churn: collector counts differ from the reference";
  if p95 > Major.budget mj then
    mismatch "gc-churn: p95 slice %d cycles exceeds the %d-cycle budget" p95
      (Major.budget mj);
  let failed = if ok_ref && p95 <= Major.budget mj then 0 else 1 in
  { setup; wall; bytecodes; ops = 1; failed; vms = [ vm ] }

(* [Gc_study.pause_study] against the same reference (traced run only). *)
let check_pause_study () =
  let rows, s =
    span "gc_study.pause_study" (fun () ->
        Gc_study.pause_study ~iterations:gc_iterations ())
  in
  let r = Perf_reference.gc in
  let scav =
    match rows with
    | scav_row :: _ -> scav_row.Gc_study.pauses
    | [] -> -1
  in
  let ok =
    s.Gc_study.maj_cycles = r.gc_cycles
    && s.Gc_study.maj_slices = r.gc_slices
    && s.Gc_study.maj_overruns = r.gc_overruns
    && s.Gc_study.maj_forced = r.gc_forced
    && s.Gc_study.maj_reclaimed_objects = r.gc_reclaimed_objects
    && s.Gc_study.maj_reclaimed_words = r.gc_reclaimed_words
    && s.Gc_study.maj_free_list_hits = r.gc_free_list_hits
    && s.Gc_study.maj_free_reused_words = r.gc_free_reused_words
    && s.Gc_study.maj_barrier_greys = r.gc_barrier_greys
    && scav = r.gc_scavenges
  in
  if not ok then
    mismatch "Gc_study.pause_study: collector counts differ from the reference";
  ok

(* --- cluster: the E19 replicated image cluster --- *)

(* Checkpoints and the command log go under this directory, inside the
   working directory, and are removed after each run. *)
let scratch_root = Filename.concat ".perfbench_out" "tmp"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_counter = ref 0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fresh_scratch () =
  incr scratch_counter;
  let d =
    Filename.concat scratch_root
      (Printf.sprintf "%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  mkdir_p d;
  d

let cluster_requests = 48

(* Logs differ in cost by up to a tenth, so one pass runs several logs,
   all derived from the run's seed. *)
let cluster_logs = 8

let cluster_seeds seed =
  List.init cluster_logs (fun k -> (abs seed * cluster_logs) + k)

(* The seed drives both the command log and the crash plan. *)
let cluster_params ~seed ~dir =
  { Replica.default_params with
    Replica.requests = cluster_requests;
    log_seed = seed;
    crash_seed = Some seed;
    dir = Some dir }

(* One [Replica.run] per seed; the pass's set-up bootstraps as many nodes
   as each run bootstraps before its first wave. *)
let cluster_run ~seeds =
  settle ();
  let params =
    List.map (fun seed -> cluster_params ~seed ~dir:(fresh_scratch ())) seeds
  in
  let (), setup =
    timed (fun () ->
        List.iter
          (fun (p : Replica.params) ->
            for _ = 0 to p.Replica.replicas do
              ignore
                (span "replica.build_node" (fun () ->
                     Replica.build_node ~slots:p.Replica.slots
                       ~shards:p.Replica.shards))
            done)
          params)
  in
  (* each run starts from a collected heap, as a pass does *)
  let runs =
    List.map
      (fun p ->
        Gc.full_major ();
        timed (fun () -> span "replica.run" (fun () -> Replica.run p)))
      params
  in
  let outcomes = List.map fst runs in
  let wall = List.fold_left (fun a (_, t) -> a +. t) 0. runs in
  List.iter (fun (o : Replica.outcome) -> remove_tree o.Replica.dir) outcomes;
  (outcomes, setup, wall)

(* One op per log entry and replica. *)
let cluster_ops (o : Replica.outcome) = o.Replica.entries * o.Replica.replicas

(* Failed ops of one cluster run: all of them unless it converged, saw no
   divergence and rejoined. *)
let cluster_failed ~seed (o : Replica.outcome) =
  if o.Replica.converged && o.Replica.divergences = [] && o.Replica.rejoins > 0
  then 0
  else begin
    mismatch "cluster log seed %d: converged %b, %d divergence(s), %d rejoin(s)"
      seed o.Replica.converged
      (List.length o.Replica.divergences)
      o.Replica.rejoins;
    cluster_ops o
  end

(* [Replica.run] keeps its VMs to itself, so [bytecodes] is counted once
   per run on the benchmark's own drive of the same logs
   ([Perf_cluster.drive], outside every timed phase). *)
let cluster_pass ~seed ~bytecodes =
  let seeds = cluster_seeds seed in
  let outcomes, setup, wall = cluster_run ~seeds in
  { setup;
    wall;
    bytecodes;
    ops = sum_by cluster_ops outcomes;
    failed =
      List.fold_left2 (fun a seed o -> a + cluster_failed ~seed o) 0 seeds
        outcomes;
    vms = [] }
