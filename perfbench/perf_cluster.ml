(* The E19 cluster driven through its public building blocks, so that
   every replica and snapshot step gets its own span: [build_node],
   [apply_wave] per wave, checkpoint [capture] + [save], and a rejoin by
   [load] + [restore] + replay into a fresh node.  Every replica's final
   fingerprint is compared against an uncrashed reference node that
   applies the dispatch order one entry at a time, as [Replica.run]'s
   reference does. *)

let span = Perf_spans.with_span

type result = {
  bytecodes : int;  (** summed over every node the drive bootstrapped *)
  snapshot_bytes : int;  (** size of the newest checkpoint file *)
  converged : bool;
}

let build_node (p : Replica.params) =
  span "replica.build_node" (fun () ->
      Replica.build_node ~slots:p.Replica.slots ~shards:p.Replica.shards)

let fingerprint (n : Replica.node) =
  span "replica.fingerprint" (fun () -> Replica.fingerprint_of n.Replica.vm)

let checkpoint ~dir ~idx ~applied (n : Replica.node) =
  let vm = n.Replica.vm in
  let fp = fingerprint n in
  let snap =
    span "snapshot.capture" (fun () ->
        Snapshot.capture vm.Vm.heap ~fingerprint:fp ~entries:applied
          ~registers:(Replica.capture_registers vm))
  in
  let path =
    Filename.concat dir (Printf.sprintf "r%d-%06d.snap" idx applied)
  in
  span "snapshot.save" (fun () -> Snapshot.save path snap);
  path

let rejoin p path =
  let snap = span "snapshot.load" (fun () -> Snapshot.load path) in
  let n = build_node p in
  let regs =
    span "snapshot.restore" (fun () ->
        Snapshot.restore snap n.Replica.vm.Vm.heap)
  in
  Replica.restore_registers n.Replica.vm regs;
  (match Universe.get_global n.Replica.vm.Vm.u "ClusterPool" with
   | Some sem -> n.Replica.pool := sem
   | None -> failwith "cluster drive: ClusterPool missing after restore");
  (n, snap.Snapshot.entries)

(* [seed] picks the log, the victim and the crash wave. *)
let drive ~seed ~dir =
  let p = Perf_workloads.cluster_params ~seed ~dir in
  let log =
    Cmdlog.generate ~seed ~requests:p.Replica.requests
      ~sessions:p.Replica.sessions ~shards:p.Replica.shards
  in
  let log_path = Filename.concat dir "cmdlog" in
  span "cmdlog.save" (fun () -> Cmdlog.save log_path log);
  let log = span "cmdlog.load" (fun () -> Cmdlog.load_nonempty log_path) in
  let waves =
    span "cmdlog.schedule" (fun () ->
        Cmdlog.schedule ~slots:p.Replica.slots (Cmdlog.to_list log))
  in
  let nwaves = List.length waves in
  let nodes = ref [] in
  let track n =
    nodes := n :: !nodes;
    n
  in
  let reference = track (build_node p) in
  List.iter
    (fun e ->
      span "replica.apply_entry" (fun () -> Replica.apply_wave reference [ e ]))
    (List.concat waves);
  let ref_fp = fingerprint reference in
  let r = p.Replica.replicas in
  let victim = abs seed mod r in
  (* the crash lands early enough for the rejoin to happen before the
     last wave *)
  let crash_wave =
    1 + (abs seed mod max 1 (nwaves - p.Replica.outage_waves - 1))
  in
  let rejoin_wave = crash_wave + p.Replica.outage_waves in
  let replicas = Array.init r (fun _ -> track (build_node p)) in
  let applied = Array.make r 0 in
  let newest = Array.make r "" in
  let last_ckpt = Array.make r 0 in
  Array.iteri
    (fun i n -> newest.(i) <- checkpoint ~dir ~idx:i ~applied:0 n)
    replicas;
  let apply i wave =
    span "replica.apply_wave" (fun () -> Replica.apply_wave replicas.(i) wave);
    applied.(i) <- applied.(i) + List.length wave;
    if applied.(i) - last_ckpt.(i) >= p.Replica.checkpoint_every then begin
      newest.(i) <- checkpoint ~dir ~idx:i ~applied:applied.(i) replicas.(i);
      last_ckpt.(i) <- applied.(i)
    end
  in
  let cums = Array.make (nwaves + 1) 0 in
  List.iteri (fun i wv -> cums.(i + 1) <- cums.(i) + List.length wv) waves;
  List.iteri
    (fun w wave ->
      if w = rejoin_wave then begin
        (* the victim restores its newest checkpoint and replays the
           waves it missed *)
        let n, entries_at = rejoin p newest.(victim) in
        replicas.(victim) <- track n;
        applied.(victim) <- entries_at;
        last_ckpt.(victim) <- entries_at;
        List.iteri
          (fun i wv -> if cums.(i) >= entries_at && i < w then apply victim wv)
          waves
      end;
      Array.iteri
        (fun i _ ->
          if not (i = victim && w >= crash_wave && w < rejoin_wave) then
            apply i wave)
        replicas)
    waves;
  let fps = Array.map fingerprint replicas in
  let bytecodes =
    List.fold_left (fun a n -> a + Perf_workloads.steps n.Replica.vm) 0 !nodes
  in
  { bytecodes;
    snapshot_bytes = (Unix.stat newest.(victim)).Unix.st_size;
    converged = Array.for_all (fun fp -> fp = ref_fp) fps }

(* [drive] in a scratch directory of its own, removed afterwards. *)
let drive_once ~seed =
  let dir = Perf_workloads.fresh_scratch () in
  Fun.protect
    ~finally:(fun () -> Perf_workloads.remove_tree dir)
    (fun () -> drive ~seed ~dir)
