(* Tests for the four system states of the evaluation and the ablations:
   the *shape* of the paper's results must hold — baseline is fastest, MS
   adds a modest static overhead, idle competition adds more, busy
   competition the most; the replication strategies beat the serialized
   alternatives under load. *)

let check_bool = Alcotest.(check bool)

(* a reduced benchmark set so the suite stays fast *)
let quick_benchmarks =
  List.filter_map
    (fun (b : Macro.benchmark) ->
      match b.Macro.key with
      | "definition" -> Some { b with Macro.reps = 12 }
      | "inspector" -> Some { b with Macro.reps = 20 }
      | "compile" -> Some { b with Macro.reps = 25 }
      | _ -> None)
    Macro.benchmarks

let results =
  lazy (Macro.run_table2 ~benchmarks:quick_benchmarks ())

let test_states_ordering () =
  let results = Lazy.force results in
  let seconds state key =
    let cells = List.assoc state results in
    let cell =
      snd (List.find (fun (b, _) -> b.Macro.key = key) cells)
    in
    cell.Macro.seconds
  in
  List.iter
    (fun (b : Macro.benchmark) ->
      let base = seconds Macro.Baseline b.Macro.key in
      let ms = seconds Macro.Ms_uni b.Macro.key in
      let idle = seconds Macro.Ms_idle b.Macro.key in
      let busy = seconds Macro.Ms_busy b.Macro.key in
      check_bool (b.Macro.key ^ ": baseline is fastest") true (base <= ms);
      check_bool (b.Macro.key ^ ": idle competition costs more than MS alone")
        true (ms < idle *. 1.03);
      check_bool (b.Macro.key ^ ": busy competition costs the most") true
        (idle < busy))
    quick_benchmarks

let test_static_overhead_modest () =
  let s = Report.summarize (Lazy.force results) in
  check_bool "static overhead positive" true (s.Report.static_mean > 0.0);
  check_bool "static overhead below 25%" true (s.Report.static_worst < 0.25);
  check_bool "busy overhead larger than idle" true
    (s.Report.busy_mean > s.Report.idle_mean)

let test_normalization () =
  let norm = Report.normalized (Lazy.force results) in
  let baseline = List.assoc Macro.Baseline norm in
  List.iter
    (fun (_, r) ->
      Alcotest.(check (float 1e-9)) "baseline normalizes to 1" 1.0 r)
    baseline

(* The same invariant as a property: for any benchmark and any (small)
   repetition count, a quick harness run preserves the E3 ordering
   baseline <= MS <= +idle <= +busy.  The simulation is deterministic, so
   each case either always holds or is a real ordering bug. *)
let e3_ordering_prop =
  QCheck.Test.make ~count:5
    ~name:"E3 ordering holds on quick runs of any benchmark and rep count"
    QCheck.(pair (int_range 0 2) (int_range 5 10))
    (fun (bench, reps) ->
      let key = List.nth [ "definition"; "inspector"; "compile" ] bench in
      let b =
        { (List.find (fun b -> b.Macro.key = key) Macro.benchmarks) with
          Macro.reps = reps }
      in
      let seconds state =
        let vm = Macro.prepare_vm state in
        (Macro.run_on vm b).Macro.seconds
      in
      let base = seconds Macro.Baseline in
      let ms = seconds Macro.Ms_uni in
      let idle = seconds Macro.Ms_idle in
      let busy = seconds Macro.Ms_busy in
      base <= ms && ms < idle *. 1.03 && idle < busy)

(* --- ablations (direction checks; magnitudes in the bench harness) --- *)

let busy_seconds ~config_tweak bench reps =
  let b =
    { (List.find (fun b -> b.Macro.key = bench) Macro.benchmarks) with
      Macro.reps = reps }
  in
  let vm = Macro.prepare_vm ~config_tweak Macro.Ms_busy in
  (Macro.run_on vm b).Macro.seconds

let test_ablation_free_contexts () =
  (* serialized free-context list vs replicated, under busy competition *)
  let replicated =
    busy_seconds "definition" 10
      ~config_tweak:(fun c -> { c with Config.free_contexts = Config.Ctx_replicated })
  in
  let serialized =
    busy_seconds "definition" 10
      ~config_tweak:(fun c -> { c with Config.free_contexts = Config.Ctx_shared_locked })
  in
  check_bool "replicating the free-context list helps under load" true
    (replicated < serialized)

let test_ablation_method_cache () =
  let replicated =
    busy_seconds "definition" 10
      ~config_tweak:(fun c -> { c with Config.method_cache = Config.Cache_replicated })
  in
  let shared =
    busy_seconds "definition" 10
      ~config_tweak:(fun c -> { c with Config.method_cache = Config.Cache_shared_locked })
  in
  check_bool "replicating the method cache helps under load" true
    (replicated < shared)

let test_ablation_replicated_eden () =
  (* the paper's proposed improvement: per-processor allocation areas of
     size s each (k*s total) *)
  match Ablations.replicated_eden ~reps:4 () with
  | [ first; second ] ->
      check_bool "replicating the new-object space helps under load" true
        (second.Ablations.seconds_b < first.Ablations.seconds_a)
  | _ -> Alcotest.fail "expected two comparison rows"

let test_deterministic () =
  (* the whole simulation is reproducible bit for bit *)
  let run () =
    let vm = Macro.prepare_vm Macro.Ms_busy in
    let b = { (List.hd Macro.benchmarks) with Macro.reps = 3 } in
    (Macro.run_on vm b).Macro.cycles
  in
  Alcotest.(check int) "identical cycle counts on identical runs" (run ()) (run ())

(* The simulated model, pinned.  [test_deterministic] only compares a run
   with itself, so a host-side change that drifted the simulated cycles
   would pass it; these constants were recorded from the model and must
   change only with a deliberate change to the model itself (then
   re-record them, and perfbench's reference with them). *)
let steps (vm : Vm.t) =
  Array.fold_left (fun a (st : State.t) -> a + st.State.steps) 0 vm.Vm.states

let test_pinned_table2 () =
  let b =
    { (List.find (fun b -> b.Macro.key = "definition") Macro.benchmarks) with
      Macro.reps = 3 }
  in
  let cell state =
    let vm = Macro.prepare_vm state in
    let s0 = steps vm in
    let c = Macro.run_on vm b in
    (Macro.state_name state, c.Macro.cycles, c.Macro.scavenges, steps vm - s0)
  in
  Alcotest.(check (list (pair string (triple int int int))))
    "definition x3: cycles, scavenges, bytecodes per state (scan engine)"
    [ ("Baseline BS on multiprocessor", (1_119_636, 1, 37_909));
      ("MS on multiprocessor", (1_172_379, 1, 37_909));
      ("MS with four idle Processes", (1_264_178, 1, 312_072));
      ("MS with four busy Processes", (1_516_440, 8, 178_353)) ]
    (List.map
       (fun state ->
         let name, cy, sc, bc = cell state in
         (name, (cy, sc, bc)))
       Macro.all_states)

(* Both engines, so the scan engine's idle path (absent from the Table 2
   cells above) is pinned too. *)
let test_pinned_server () =
  let p =
    { Server.default_params with
      Server.sessions = 4;
      workers = 2;
      requests = 2;
      think_ms = 100;
      loop = Server.Closed }
  in
  let run engine =
    let config = { (Config.ms ~processors:8 ()) with Config.engine } in
    let _vm, s = Server.run config p in
    (s.Server.completed, s.Server.run_cycles, s.Server.latency.Server.p50)
  in
  Alcotest.(check (list (triple int int int)))
    "server on the scan and calendar engines: completed, run_cycles, p50"
    [ (8, 1_604_636, 462_082); (8, 1_600_236, 461_254) ]
    [ run Config.Engine_scan; run Config.Engine_calendar ]

let () =
  Alcotest.run "states"
    [ ("table2",
       [ Alcotest.test_case "ordering" `Slow test_states_ordering;
         Alcotest.test_case "static overhead" `Slow test_static_overhead_modest;
         Alcotest.test_case "normalization" `Slow test_normalization;
         QCheck_alcotest.to_alcotest e3_ordering_prop ]);
      ("ablations",
       [ Alcotest.test_case "free contexts" `Slow test_ablation_free_contexts;
         Alcotest.test_case "method cache" `Slow test_ablation_method_cache;
         Alcotest.test_case "replicated eden" `Slow test_ablation_replicated_eden;
         Alcotest.test_case "determinism" `Quick test_deterministic ]);
      ("pinned",
       [ Alcotest.test_case "table2 cells" `Quick test_pinned_table2;
         Alcotest.test_case "server" `Quick test_pinned_server ]) ]
