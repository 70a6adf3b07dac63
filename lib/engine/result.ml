type degradation = {
  migrate_retries : int;
  deferred : int;
  drained : int;
  fallback_maps : int;
  breaker_trips : int;
  breaker_level : int;
  lost_batches : int;
  reconciled : int;
  backoff_time : float;
  ecc_ce : int;
  ecc_ue : int;
  offlined : int;
  evacuated : int;
  evac_epochs : int;
}

let no_degradation =
  {
    migrate_retries = 0;
    deferred = 0;
    drained = 0;
    fallback_maps = 0;
    breaker_trips = 0;
    breaker_level = 0;
    lost_batches = 0;
    reconciled = 0;
    backoff_time = 0.0;
    ecc_ce = 0;
    ecc_ue = 0;
    offlined = 0;
    evacuated = 0;
    evac_epochs = 0;
  }

(* Tail of the per-domain latency distribution: percentiles over the
   run's log-bucket histogram of per-vCPU-per-epoch mean latencies,
   recorded in the runner's sequential reduction (so bit-identical
   across --jobs). *)
type latency_summary = {
  samples : int;
  lat_mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  lat_max : float;
}

let no_latency =
  { samples = 0; lat_mean = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0; p999 = 0.0; lat_max = 0.0 }

(* One --slo CLASS=TARGET objective evaluated for one domain: the
   end-of-run value of the metric, plus per-epoch violation accounting
   (an epoch violates when its own value of the metric exceeded the
   target; burn rate = violating / active epochs). *)
type slo_row = {
  metric : string;  (* mean | p50 | p95 | p99 | p999 *)
  target : float;
  value : float;  (* end-of-run value of the metric *)
  violation_epochs : int;
  active_epochs : int;
  burn_rate : float;
  violated : bool;  (* end-of-run value exceeds the target *)
}

type vm_result = {
  app_name : string;
  policy : string;
  completion : float;
  compute_time : float;
  io_overhead : float;
  sync_overhead : float;
  virt_overhead : float;
  release_overhead : float;
  faults : int;
  migrations : int;
  avg_latency_cycles : float;
  local_fraction : float;
  superpages : int;  (* live 2 MiB P2M entries at the end of the run *)
  superpage_fraction : float;  (* share of mapped guest memory under them *)
  splinters : int;  (* cumulative demotions (P2M counter) *)
  promotes : int;  (* cumulative coalesces, in place and by copy *)
  superpage_migrates : int;  (* the copying promotes among them *)
  walk_cycles_per_instr : float;  (* end-of-run TLB walk CPI term *)
  pt_replica_updates : int;  (* per-mirror PT entry writes *)
  pt_replica_invalidations : int;  (* per-mirror PT shootdowns *)
  pt_replica_time : float;  (* write-propagation seconds *)
  latency : latency_summary;
  slo : slo_row list;  (* one row per --slo objective, spec order *)
  degradation : degradation;
}

type t = {
  vms : vm_result list;
  imbalance : float;
  interconnect_load : float;
  epochs : int;
  replayed_epochs : int;
  faults_injected : int;
}

let completion t name =
  match List.find_opt (fun vm -> vm.app_name = name) t.vms with
  | Some vm -> vm.completion
  | None -> raise Not_found

let single t =
  match t.vms with
  | [ vm ] -> vm
  | _ -> invalid_arg "Result.single: run had several VMs"

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun vm ->
      Format.fprintf fmt
        "%-14s %-22s %7.2f s (compute %6.2f, io %5.2f, sync %5.2f, virt %5.2f, rel %5.2f) \
         lat %5.0f cy, local %4.1f%%, %d migrations@,"
        vm.app_name vm.policy vm.completion vm.compute_time vm.io_overhead vm.sync_overhead
        vm.virt_overhead vm.release_overhead vm.avg_latency_cycles
        (100.0 *. vm.local_fraction) vm.migrations)
    t.vms;
  List.iter
    (fun vm ->
      if vm.superpages > 0 || vm.splinters > 0 || vm.promotes > 0 then
        Format.fprintf fmt
          "%-14s superpages: %d live (%4.1f%% of mapped), %d splintered, %d promoted (%d by \
           copy)@,"
          vm.app_name vm.superpages
          (100.0 *. vm.superpage_fraction)
          vm.splinters vm.promotes vm.superpage_migrates)
    t.vms;
  List.iter
    (fun vm ->
      if vm.pt_replica_updates > 0 || vm.pt_replica_invalidations > 0 then
        Format.fprintf fmt
          "%-14s pt replicas: %d entry writes, %d shootdowns, %.3f s propagation (walk %0.4f \
           cy/instr)@,"
          vm.app_name vm.pt_replica_updates vm.pt_replica_invalidations vm.pt_replica_time
          vm.walk_cycles_per_instr)
    t.vms;
  List.iter
    (fun vm ->
      let d = vm.degradation in
      if d <> no_degradation then
        Format.fprintf fmt
          "%-14s degraded: %d retries, %d deferred (%d drained), %d fallback maps, %d breaker \
           trips (level %d), %d lost batches, %d reconciled@,"
          vm.app_name d.migrate_retries d.deferred d.drained d.fallback_maps d.breaker_trips
          d.breaker_level d.lost_batches d.reconciled)
    t.vms;
  List.iter
    (fun vm ->
      let l = vm.latency in
      if l.samples > 0 then
        Format.fprintf fmt
          "%-14s latency: p50 %5.0f  p95 %5.0f  p99 %5.0f  p99.9 %5.0f  max %5.0f cy (%d \
           samples)@,"
          vm.app_name l.p50 l.p95 l.p99 l.p999 l.lat_max l.samples)
    t.vms;
  List.iter
    (fun vm ->
      List.iter
        (fun s ->
          Format.fprintf fmt
            "%-14s slo %-5s target %6.0f cy: value %6.0f %s, %d/%d epochs in violation \
             (burn rate %.3f)@,"
            vm.app_name s.metric s.target s.value
            (if s.violated then "VIOLATED" else "ok")
            s.violation_epochs s.active_epochs s.burn_rate)
        vm.slo)
    t.vms;
  List.iter
    (fun vm ->
      let d = vm.degradation in
      if d.ecc_ce > 0 || d.ecc_ue > 0 || d.offlined > 0 || d.evacuated > 0 then
        Format.fprintf fmt
          "%-14s ras: %d CE, %d UE, %d frames offlined, %d evacuated over %d epochs@,"
          vm.app_name d.ecc_ce d.ecc_ue d.offlined d.evacuated d.evac_epochs)
    t.vms;
  Format.fprintf fmt "imbalance %.0f%%, interconnect %.0f%%, %d epochs" (100.0 *. t.imbalance)
    (100.0 *. t.interconnect_load)
    t.epochs;
  if t.replayed_epochs > 0 then Format.fprintf fmt " (%d replayed)" t.replayed_epochs;
  if t.faults_injected > 0 then Format.fprintf fmt ", %d faults injected" t.faults_injected;
  Format.fprintf fmt "@]"
