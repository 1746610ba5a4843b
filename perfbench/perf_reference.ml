(* Simulated outputs of the benchmark's workloads, recorded with
   [main.exe --record] on the commit that introduced the benchmark.
   A host-only change must reproduce them bit for bit. *)

type cell = {
  state : string;
  bench : string;
  cycles : int;
  scavenges : int;
  bytecodes : int;
}

type server = {
  offered : int;
  completed : int;
  p50 : int;
  p99 : int;
  run_cycles : int;
  steps : int;
}

type gc = {
  gc_cycles : int;
  gc_slices : int;
  gc_overruns : int;
  gc_forced : int;
  gc_reclaimed_objects : int;
  gc_reclaimed_words : int;
  gc_free_list_hits : int;
  gc_free_reused_words : int;
  gc_barrier_greys : int;
  gc_scavenges : int;
  gc_bytecodes : int;
}

let table2 =
  [
    { state = "baseline"; bench = "organization"; cycles = 2317547; scavenges = 1; bytecodes = 76281 };
    { state = "baseline"; bench = "definition"; cycles = 1117108; scavenges = 1; bytecodes = 37909 };
    { state = "baseline"; bench = "hierarchy"; cycles = 1573280; scavenges = 1; bytecodes = 51919 };
    { state = "baseline"; bench = "calls"; cycles = 4704948; scavenges = 9; bytecodes = 142858 };
    { state = "baseline"; bench = "implementors"; cycles = 1384322; scavenges = 2; bytecodes = 46681 };
    { state = "baseline"; bench = "inspector"; cycles = 863988; scavenges = 1; bytecodes = 27265 };
    { state = "baseline"; bench = "compile"; cycles = 3614448; scavenges = 0; bytecodes = 5393 };
    { state = "baseline"; bench = "decompile"; cycles = 2079556; scavenges = 1; bytecodes = 5373 };
    { state = "ms"; bench = "organization"; cycles = 2390365; scavenges = 1; bytecodes = 76281 };
    { state = "ms"; bench = "definition"; cycles = 1169869; scavenges = 1; bytecodes = 37909 };
    { state = "ms"; bench = "hierarchy"; cycles = 1634296; scavenges = 1; bytecodes = 51919 };
    { state = "ms"; bench = "calls"; cycles = 4909229; scavenges = 9; bytecodes = 142858 };
    { state = "ms"; bench = "implementors"; cycles = 1445480; scavenges = 2; bytecodes = 46681 };
    { state = "ms"; bench = "inspector"; cycles = 896294; scavenges = 1; bytecodes = 27265 };
    { state = "ms"; bench = "compile"; cycles = 3955268; scavenges = 0; bytecodes = 5393 };
    { state = "ms"; bench = "decompile"; cycles = 2271680; scavenges = 1; bytecodes = 5373 };
    { state = "ms_idle"; bench = "organization"; cycles = 2572121; scavenges = 1; bytecodes = 640812 };
    { state = "ms_idle"; bench = "definition"; cycles = 1263169; scavenges = 1; bytecodes = 311632 };
    { state = "ms_idle"; bench = "hierarchy"; cycles = 1757700; scavenges = 1; bytecodes = 436748 };
    { state = "ms_idle"; bench = "calls"; cycles = 5273992; scavenges = 9; bytecodes = 1273670 };
    { state = "ms_idle"; bench = "implementors"; cycles = 1549015; scavenges = 2; bytecodes = 381723 };
    { state = "ms_idle"; bench = "inspector"; cycles = 960892; scavenges = 1; bytecodes = 236177 };
    { state = "ms_idle"; bench = "compile"; cycles = 4344854; scavenges = 0; bytecodes = 970368 };
    { state = "ms_idle"; bench = "decompile"; cycles = 2491029; scavenges = 1; bytecodes = 550900 };
    { state = "ms_busy"; bench = "organization"; cycles = 3173892; scavenges = 17; bytecodes = 365949 };
    { state = "ms_busy"; bench = "definition"; cycles = 1498780; scavenges = 8; bytecodes = 177185 };
    { state = "ms_busy"; bench = "hierarchy"; cycles = 2171230; scavenges = 12; bytecodes = 250899 };
    { state = "ms_busy"; bench = "calls"; cycles = 6403963; scavenges = 41; bytecodes = 727742 };
    { state = "ms_busy"; bench = "implementors"; cycles = 1828448; scavenges = 11; bytecodes = 215689 };
    { state = "ms_busy"; bench = "inspector"; cycles = 1163233; scavenges = 7; bytecodes = 135535 };
    { state = "ms_busy"; bench = "compile"; cycles = 4397138; scavenges = 2; bytecodes = 41829 };
    { state = "ms_busy"; bench = "decompile"; cycles = 2567708; scavenges = 3; bytecodes = 42867 };
  ]

let server =
  { offered = 128; completed = 128; p50 = 398435; p99 = 651205; run_cycles = 42030852;
    steps = 1260726 }

let gc =
  { gc_cycles = 35; gc_slices = 601; gc_overruns = 0; gc_forced = 0;
    gc_reclaimed_objects = 58925; gc_reclaimed_words = 242034;
    gc_free_list_hits = 48370; gc_free_reused_words = 199282;
    gc_barrier_greys = 350; gc_scavenges = 423; gc_bytecodes = 2430031 }
