(* Host-speed calibration.  On a shared machine the host runs the
   simulator up to a third slower for minutes at a time.  This fixed loop,
   a branchy dispatch over a small program like the interpreter's own
   loop but independent of every library, slows down with it (correlation
   0.91 over 300 paired samples).  Times are therefore reported at the
   loop's reference speed: the run's median seconds x [reference_s] / the
   loop's median time over the run.  One loop sample is too noisy to scale
   a single pass; the run's median is not. *)

let program = Array.init 4096 (fun i -> (i * 2654435761) lsr 7 land 7)
let memory = Array.make 8192 0

(* Host seconds of one run of the loop on an idle 2-vCPU Xeon
   (Sapphire Rapids) KVM guest, OCaml 5.1 native code. *)
let reference_s = 0.0160

let loop () =
  let t0 = Unix.gettimeofday () in
  let a = ref 1 and b = ref 2 and pc = ref 0 in
  for _ = 1 to 6_000_000 do
    (match program.(!pc) with
     | 0 -> a := !a + !b
     | 1 -> b := !b lxor (!a lsl 1)
     | 2 -> memory.(!a land 8191) <- !b
     | 3 -> a := memory.(!b land 8191) + 1
     | 4 -> if !a land 1 = 0 then b := !b + 3 else a := !a - 1
     | 5 -> b := !b * 31 land 0xffffff
     | 6 -> a := (!a lsr 1) + !b
     | _ -> b := !b + !a);
    pc := (!pc + 1 + (!a land 3)) land 4095
  done;
  ignore (Sys.opaque_identity (!a + !b));
  Unix.gettimeofday () -. t0

(* Loop times taken so far in this run. *)
let samples : float list ref = ref []

(* Run [f] between two runs of the loop. *)
let around f =
  samples := loop () :: !samples;
  let r = f () in
  samples := loop () :: !samples;
  r

(* Scales host seconds measured in this run to the reference speed. *)
let factor () = reference_s /. Perf_spans.median !samples
