(* Per-cell result digest, 64 bits of MD5 over every Engine.Result.t
   field except [replayed_epochs] (how epochs were computed, not what
   they computed), floats taken by bit pattern.  The record patterns list
   every field without a wildcard, so a field added to the result
   breaks the build here instead of silently escaping the check. *)

let of_result (r : Engine.Result.t) =
  let b = Buffer.create 1024 in
  let word s = Buffer.add_string b s; Buffer.add_char b ' ' in
  let int i = word (string_of_int i) in
  let float f = word (Int64.to_string (Int64.bits_of_float f)) in
  let str s = int (String.length s); Buffer.add_string b s in
  let bool x = int (Bool.to_int x) in
  let { Engine.Result.vms; imbalance; interconnect_load; epochs; replayed_epochs = _;
        faults_injected } = r in
  float imbalance; float interconnect_load; int epochs; int faults_injected;
  List.iter
    (fun { Engine.Result.app_name; policy; completion; compute_time; io_overhead; sync_overhead;
           virt_overhead; release_overhead; faults; migrations; avg_latency_cycles;
           local_fraction; superpages; superpage_fraction; splinters; promotes;
           superpage_migrates; walk_cycles_per_instr; pt_replica_updates;
           pt_replica_invalidations; pt_replica_time; latency; slo; degradation } ->
      str app_name; str policy;
      List.iter float
        [ completion; compute_time; io_overhead; sync_overhead; virt_overhead; release_overhead;
          avg_latency_cycles; local_fraction; superpage_fraction; walk_cycles_per_instr;
          pt_replica_time ];
      List.iter int
        [ faults; migrations; superpages; splinters; promotes; superpage_migrates;
          pt_replica_updates; pt_replica_invalidations ];
      let { Engine.Result.samples; lat_mean; p50; p95; p99; p999; lat_max } = latency in
      int samples;
      List.iter float [ lat_mean; p50; p95; p99; p999; lat_max ];
      List.iter
        (fun { Engine.Result.metric; target; value; violation_epochs; active_epochs; burn_rate;
               violated } ->
          str metric; float target; float value; int violation_epochs; int active_epochs;
          float burn_rate; bool violated)
        slo;
      let { Engine.Result.migrate_retries; deferred; drained; fallback_maps; breaker_trips;
            breaker_level; lost_batches; reconciled; backoff_time; ecc_ce; ecc_ue; offlined;
            evacuated; evac_epochs } = degradation in
      List.iter int
        [ migrate_retries; deferred; drained; fallback_maps; breaker_trips; breaker_level;
          lost_batches; reconciled; ecc_ce; ecc_ue; offlined; evacuated; evac_epochs ];
      float backoff_time)
    vms;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16
