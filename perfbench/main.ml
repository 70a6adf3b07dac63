(* The repository benchmark: generate a workload's cell set from the
   seed, run every cell through Engine.Runner.run one after another on
   one domain, time each cell and its boot with the benchmark's own
   spans, check every result, and print the metrics.

     perfbench/main.exe --workload static|carrefour|churn [--seed N]
       [--seconds S] [--trace 0|1] [--record]

   --trace 0 reports the end-to-end metrics of untraced passes, scaled
   to a reference host speed by the yardstick below;
   --trace 1 adds a traced pass (Obs.Profile and Obs.Metrics on) and
   reports the per-layer metrics.  The last stdout line is one JSON
   object; a JSON report with every cell goes to perfbench/results/.
   --record rewrites this (workload, seed)'s rows of
   perfbench/digests.txt instead of measuring. *)

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---- arguments ---- *)

let workload = ref None
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let digests_file = "perfbench/digests.txt"
let out_dir = "perfbench/results"
let record = ref false

let parse_args () =
  let int_of name s =
    match int_of_string_opt s with Some n -> n | None -> fail "bad %s %S" name s
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match Cells.workload_of_string w with
        | Some w -> workload := Some w
        | None -> fail "unknown workload %S (static, carrefour, churn)" w);
        go rest
    | "--seed" :: s :: rest -> seed := int_of "--seed" s; go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x >= 0.0 -> seconds := x
        | _ -> fail "bad --seconds %S" s);
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := int_of_string t; go rest
    | "--record" :: rest -> record := true; go rest
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with Some w -> w | None -> fail "--workload is required"

(* ---- provenance ---- *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* The commit, read from .git without running git: the benchmark may
   run in an export that is not a repository at all. *)
let git_rev () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat ".git" ref_)) with
      | rev -> rev
      | exception Sys_error _ -> (
          match read_file ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ rev; r ] when r = ref_ -> Some rev
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | rev -> rev

(* ---- recorded digests: lines "workload seed label digest" ---- *)

let load_digests () =
  match read_file digests_file with
  | exception Sys_error _ -> []
  | text ->
      String.split_on_char '\n' text
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line with
             | [ w; s; label; d ] -> Some ((w, int_of_string s, label), d)
             | _ -> None)

let save_digests rows =
  let rows = List.sort compare rows in
  Out_channel.with_open_bin digests_file (fun oc ->
      List.iter
        (fun ((w, s, label), d) -> Printf.fprintf oc "%s %d %s %s\n" w s label d)
        rows)

(* ---- host speed ---- *)

(* The host is a shared VM whose speed drifts by up to 1.8x in spells
   of seconds to minutes, which can cover a whole run.  Neither the
   process's CPU time nor steal time shows it: the slow spells are
   mostly contention for caches and memory, not for the core.  So every
   boot and every full run is preceded by one sample of the yardstick,
   fixed work in the benchmark's own code with nothing of the simulator
   in it, so that no change to the program can move it.  It builds and
   queries a hash table of 20,000 boxed entries (allocation, minor
   collections, scattered loads), then runs a chain of float
   multiply-adds that the caches do not touch.  Over 8-second windows on
   the host below, the hash table alone slowed 1.5 to 1.7 times as much
   as the carrefour cells did in log terms and the float chain hardly at all;
   with both (about 70% and 30% of the sample) the cells' slope against
   the yardstick was 0.8 to 0.9.  The sample leaves about 1.3 MB of
   garbage. *)
let yardstick () =
  let t0 = now () in
  let t = Hashtbl.create 16 in
  for i = 0 to 19_999 do
    Hashtbl.replace t (i * 7919) (float_of_int i, i)
  done;
  let s = ref 0.0 in
  for i = 0 to 19_999 do
    match Hashtbl.find_opt t (i * 7919) with Some (f, _) -> s := !s +. f | None -> ()
  done;
  let x = ref 1.0 in
  for _ = 1 to 1_000_000 do
    x := (!x *. 1.0000001) +. 1e-9
  done;
  ignore (Sys.opaque_identity (!s +. !x));
  (now () -. t0) *. 1e3

(* The yardstick's median time on the host the benchmark was defined
   on (2 Intel Xeon vCPUs).  A time is scaled by this over the
   yardstick samples around it: to what it would have been at that
   host's usual speed. *)
let reference_yard_ms = 10.0

(* ---- running cells ---- *)

type sample = {
  cell : Cells.cell;
  boot_ms : float;  (** the cell's boot-only run *)
  boot_yard_ms : float;  (** the yardstick sample just before the boot *)
  ms : float;  (** the cell's full run *)
  yard_ms : float;  (** the yardstick sample just before the full run *)
  epochs : int;
  replayed : int;
  faults : int;
  digest : string;
  failure : string option;
}

let timed ?max_epochs cell =
  let cfg = Cells.config ?max_epochs cell in
  let t0 = now () in
  let r = Engine.Runner.run cfg in
  ((now () -. t0) *. 1e3, cfg, r)

(* Independent sanity checks that hold for any seed; the recorded
   digests pin the exact bits where they exist. *)
let check ~expected cell (cfg : Engine.Config.t) (r : Engine.Result.t) digest =
  let bad_vm (vm : Engine.Result.vm_result) =
    not
      (Float.is_finite vm.Engine.Result.completion
      && vm.Engine.Result.completion > 0.0
      && vm.Engine.Result.local_fraction >= 0.0
      && vm.Engine.Result.local_fraction <= 1.0)
  in
  if r.Engine.Result.epochs >= cfg.Engine.Config.max_epochs then Some "hit the epoch cap"
  else if List.length r.Engine.Result.vms <> 1 || List.exists bad_vm r.Engine.Result.vms then
    Some "implausible result"
  else
    match expected cell with
    | Some d when d <> digest -> Some "digest differs from the recorded one"
    | Some _ | None -> None

let set_obs on =
  Obs.Profile.set_enabled on;
  Obs.Metrics.set_enabled on

(* Every boot and full run starts on a collected heap, so that none is
   billed for the garbage of what ran before it, and right after a
   yardstick sample, whose time it returns. *)
let fresh () =
  Gc.full_major ();
  yardstick ()

(* A cell's boot alone ([max_epochs:0], never traced). *)
let boot cell =
  let yard_ms = fresh () in
  match timed ~max_epochs:0 cell with
  | boot_ms, _, _ -> Ok (yard_ms, boot_ms)
  | exception e -> Error ("boot raised " ^ Printexc.to_string e)

(* A cell's full run, traced when asked, paired with its boot. *)
let run_cell ~expected ~traced cell boot =
  let failed why = { cell; boot_ms = 0.0; boot_yard_ms = 0.0; ms = 0.0; yard_ms = 0.0;
                     epochs = 0; replayed = 0; faults = 0; digest = ""; failure = Some why } in
  match boot with
  | Error why -> failed why
  | Ok (boot_yard_ms, boot_ms) -> (
      let yard_ms = fresh () in
      if traced then set_obs true;
      let run = try Ok (timed cell) with e -> Error e in
      if traced then set_obs false;
      match run with
      | Error e -> failed ("raised " ^ Printexc.to_string e)
      | Ok (ms, cfg, r) ->
          let digest = Fingerprint.of_result r in
          { cell; boot_ms; boot_yard_ms; ms; yard_ms; epochs = r.Engine.Result.epochs;
            replayed = r.Engine.Result.replayed_epochs; faults = r.Engine.Result.faults_injected;
            digest; failure = check ~expected cell cfg r digest })

(* Mark a sample failed when its result differs from the reference
   pass's: every pass, traced or not, must compute the same bits. *)
let agree ~why reference =
  List.map2
    (fun r s ->
      if s.failure = None && r.failure = None && s.digest <> r.digest then
        { s with failure = Some why }
      else s)
    reference

(* ---- statistics ---- *)

let sum = List.fold_left ( +. ) 0.0
let isum = List.fold_left ( + ) 0

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

(* The Harrell-Davis estimate of quantile [q]: the mean of all the
   sorted values, each weighted by the chance that it is the q-th of a
   sample of that size, a Beta(q(n+1), (1-q)(n+1)) density integrated
   over its rank's share of [0, 1].  It moves smoothly where a single
   sorted value jumps: over the 29 carrefour cells, the sorted value at
   p64 sat on a 20% gap between two cells and fell on one side or the
   other from run to run. *)
let harrell_davis q xs =
  let a = sorted xs in
  let n = Array.length a in
  let alpha = q *. float_of_int (n + 1) and beta = (1.0 -. q) *. float_of_int (n + 1) in
  let steps = 100 * n in
  let w = Array.make n 0.0 in
  for k = 0 to steps - 1 do
    let x = (float_of_int k +. 0.5) /. float_of_int steps in
    let i = k * n / steps in
    w.(i) <- w.(i) +. exp (((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)))
  done;
  let total = sum (Array.to_list w) in
  sum (List.init n (fun i -> w.(i) *. a.(i))) /. total

(* The highest percentile with ten values beyond it (over 29 cells,
   that of index 18 of 0..28, which is p64), estimated by Harrell-Davis. *)
let tail10 xs =
  let n = List.length xs in
  harrell_davis (float_of_int (max 0 (n - 11)) /. float_of_int (n - 1)) xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The host's speed at a sample is read from the median of the
   yardstick samples of its sweep up to [speed_window] cells before and
   after it: a slow spell of a second is seen, one odd sample is not. *)
let speed_window = 3

(* [value] of every sample of one sweep, scaled to the reference host
   speed. *)
let scaled ~yard ~value samples =
  let ys = Array.of_list (List.map yard samples) in
  let n = Array.length ys in
  List.mapi
    (fun i s ->
      let lo = max 0 (i - speed_window) and hi = min (n - 1) (i + speed_window) in
      ratio (value s *. reference_yard_ms) (median (Array.to_list (Array.sub ys lo (hi - lo + 1)))))
    samples

let scaled_ms = scaled ~yard:(fun s -> s.yard_ms) ~value:(fun s -> s.ms)
let scaled_boot_ms = scaled ~yard:(fun s -> s.boot_yard_ms) ~value:(fun s -> s.boot_ms)

(* ---- output ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let json_string s = "\"" ^ Obs.Json.escape s ^ "\""

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun { name; value; unit_ } ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number value)
           (json_string unit_))
       ms)

let write_report ~w ~provenance ~metrics ~samples =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" (Cells.workload_name w) !seed !trace)
  in
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc
        "{\n  \"provenance\": {%s},\n  \"metrics\": {%s},\n  \"cells\": [\n%s\n  ]\n}\n"
        (String.concat ", "
           (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) provenance))
        (json_metrics metrics)
        (String.concat ",\n"
           (List.map
              (fun s ->
                Printf.sprintf
                  "    {\"label\": %s, \"seed\": %d, \"plan\": %s, \"boot_ms\": %s, \
                   \"boot_yard_ms\": %s, \"ms\": %s, \"yard_ms\": %s, \
                   \"epochs\": %d, \"replayed\": %d, \"digest\": %s, \"failure\": %s}"
                  (json_string s.cell.Cells.label) s.cell.Cells.seed (json_string s.cell.Cells.plan)
                  (json_number s.boot_ms) (json_number s.boot_yard_ms) (json_number s.ms)
                  (json_number s.yard_ms) s.epochs s.replayed
                  (json_string s.digest)
                  (json_string (Option.value ~default:"" s.failure)))
              samples)));
  file

let print_table ~total_ms metrics =
  Printf.printf "%-36s %16s %-6s %7s\n" "metric" "value" "unit" "share";
  List.iter
    (fun { name; value; unit_ } ->
      let share =
        if unit_ = "ms" && total_ms > 0.0 && name <> "host.yard_ms" then Printf.sprintf "%6.1f%%" (100.0 *. value /. total_ms)
        else ""
      in
      Printf.printf "%-36s %16.6g %-6s %7s\n" name value unit_ share)
    metrics

(* ---- metrics ---- *)

(* End-to-end metrics over untraced passes.  Every time is first scaled
   to the reference host speed; each cell's full-run and boot times are
   then its median over the passes. *)
let end_to_end passes =
  let per_cell scale =
    let scaled = List.map scale passes in
    List.mapi (fun i _ -> median (List.map (fun p -> List.nth p i) scaled)) (List.hd passes)
  in
  let cell_ms = per_cell scaled_ms in
  let boot_ms = per_cell scaled_boot_ms in
  let epochs = isum (List.map (fun s -> s.epochs) (List.hd passes)) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  [ m "epochs_per_s" "1/s" (ratio (float_of_int epochs) (sum cell_ms /. 1e3));
    m "cell_ms_p50" "ms" (harrell_davis 0.5 cell_ms); m "cell_ms_p64" "ms" (tail10 cell_ms);
    m "setup_s" "s" (sum boot_ms /. 1e3);
    m "peak_heap_mb" "MB" heap_mb ]

(* Per-layer numbers of one traced pass, read out of Obs.Profile and
   Obs.Metrics.  Profile spans are inclusive and nest: p2m.batch runs
   inside carrefour.feed, manager.epoch_tick and pv.flush, and at boot
   under the free-range release; every other phase is top level, which
   is what [engine.unprofiled_ms] subtracts.  These times are not
   scaled; [host.yard_ms], the pass's median yardstick sample, gives the
   host's speed during it. *)
let per_layer ~untraced traced =
  let phase name =
    match List.find_opt (fun (n, _, _) -> n = name) (Obs.Profile.totals ()) with
    | Some (_, calls, ns) -> (float_of_int calls, float_of_int ns /. 1e6)
    | None -> (0.0, 0.0)
  in
  let counter name = float_of_int (Option.value ~default:0 (Obs.Metrics.counter_value name)) in
  let hist_mean name =
    match List.assoc_opt name (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Histogram_value h) -> h.Obs.Metrics.mean
    | _ -> 0.0
  in
  let total f samples = sum (List.map f samples) in
  let cell_ms = total (fun s -> s.ms) traced in
  let boot = total (fun s -> s.boot_ms) traced in
  let epochs = total (fun s -> float_of_int s.epochs) traced in
  let with_calls prefix phase_name =
    let calls, ms = phase phase_name in
    [ m (prefix ^ "_ms") "ms" ms; m (prefix ^ "_calls") "count" calls;
      m (prefix ^ "_us_per_call") "us" (1e3 *. ratio ms calls) ]
  in
  let top_level =
    [ "kernel.compute"; "kernel.throughput"; "kernel.latency"; "reduce"; "ff.replay";
      "carrefour.feed"; "manager.epoch_tick"; "pv.flush" ]
  in
  let profiled = sum (List.map (fun p -> snd (phase p)) top_level) in
  let feed_calls, feed_ms = phase "carrefour.feed" in
  let batch_calls, batch_ms = phase "p2m.batch" in
  let dedup = counter "guest.pv.dedup_hits" in
  let metrics =
    [ m "engine.cell_ms" "ms" cell_ms; m "engine.boot_ms" "ms" boot;
      m "engine.us_per_epoch" "us" (1e3 *. ratio (cell_ms -. boot) epochs);
      m "engine.epochs" "count" epochs;
      m "engine.ff.replay_frac" "ratio"
        (ratio (total (fun s -> float_of_int s.replayed) traced) epochs) ]
    @ with_calls "engine.kernel.compute" "kernel.compute"
    @ with_calls "engine.kernel.throughput" "kernel.throughput"
    @ with_calls "engine.kernel.latency" "kernel.latency"
    @ with_calls "engine.reduce" "reduce"
    @ with_calls "engine.ff.replay" "ff.replay"
    @ [ m "engine.unprofiled_ms" "ms" (cell_ms -. boot -. profiled);
        m "policies.carrefour.feed_ms" "ms" feed_ms;
        m "policies.carrefour.feed_us_per_call" "us" (1e3 *. ratio feed_ms feed_calls);
        m "policies.carrefour.fail_frac" "ratio"
          (ratio (counter "policies.carrefour.failed") (counter "policies.carrefour.actions"));
        m "policies.carrefour.migrations" "count"
          (counter "policies.carrefour.interleave_migrations"
          +. counter "policies.carrefour.locality_migrations");
        m "policies.epoch_tick_ms" "ms" (snd (phase "manager.epoch_tick"));
        m "policies.ras.evacuated" "count" (counter "policies.ras.evacuated");
        m "xen.p2m.batch_ms" "ms" batch_ms; m "xen.p2m.batches" "count" batch_calls;
        m "xen.p2m.batch_fill" "ratio" (hist_mean "xen.p2m.batch_frames" /. 128.0);
        m "xen.pt.replica_updates" "count" (counter "engine.pt.replica_updates");
        m "guest.pv.flush_ms" "ms" (snd (phase "pv.flush"));
        m "guest.pv.dedup_frac" "ratio" (ratio dedup (dedup +. counter "guest.pv.ops_sent"));
        m "faults.injected" "count" (total (fun s -> float_of_int s.faults) traced);
        m "obs.overhead_frac" "ratio" (ratio (sum (scaled_ms traced)) (sum (scaled_ms untraced)) -. 1.0);
        m "host.yard_ms" "ms" (median (List.map (fun s -> s.yard_ms) traced)) ]
  in
  (metrics, cell_ms)

let () =
  let w = parse_args () in
  let wname = Cells.workload_name w in
  let nproc = Domain.recommended_domain_count () in
  let cells = Cells.generate w ~seed:!seed in
  let recorded = load_digests () in
  let mine =
    List.filter_map
      (fun ((w', s, label), d) -> if w' = wname && s = !seed then Some (label, d) else None)
      recorded
  in
  let expected (cell : Cells.cell) =
    if mine = [] || !record then None
    else Some (Option.value ~default:"missing" (List.assoc_opt cell.Cells.label mine))
  in
  let provenance =
    [ ("git_rev", git_rev ()); ("nproc", string_of_int nproc);
      ("domains", "1"); ("workload", wname);
      ("seed", string_of_int !seed); ("cells", string_of_int (List.length cells));
      ("digests", if mine = [] then "not recorded for this seed" else "recorded") ]
  in
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n%!" k v) provenance;
  (* Every pass opens with an untimed warm-up cell, so caches fill and
     lazy set-up finishes first.  Then it boots every cell, then runs
     every cell in full. *)
  let pass ~traced =
    let warm = List.hd cells in
    ignore (run_cell ~expected:(fun _ -> None) ~traced:false warm (boot warm));
    let boots = List.map boot cells in
    List.map2 (run_cell ~expected ~traced) cells boots
  in
  if !record then begin
    let samples = pass ~traced:false in
    List.iter
      (fun s -> Option.iter (fail "cannot record: %s %s" s.cell.Cells.label) s.failure)
      samples;
    save_digests
      (List.filter (fun ((w', s, _), _) -> not (w' = wname && s = !seed)) recorded
      @ List.map (fun s -> ((wname, !seed, s.cell.Cells.label), s.digest)) samples);
    Printf.printf "recorded %d digests in %s\n" (List.length samples) digests_file;
    exit 0
  end;
  (* Untraced passes, whole passes only: at least three and until
     --seconds, or two before a traced pass.  The traced pass is compared
     with the second, which like it runs on a heap the first has grown. *)
  let t0 = now () in
  let rec untraced acc =
    let p = pass ~traced:false in
    Printf.printf "pass %d: %.0f ms in cells, %.0f ms in boots, median yardstick %.2f ms\n%!"
      (List.length acc + 1)
      (sum (List.map (fun s -> s.ms) p))
      (sum (List.map (fun s -> s.boot_ms) p))
      (median (List.map (fun s -> s.yard_ms) p));
    let acc = p :: acc in
    let n = List.length acc in
    if (!trace = 0 && (n < 3 || now () -. t0 < !seconds)) || (!trace = 1 && n < 2) then
      untraced acc
    else List.rev acc
  in
  let passes = untraced [] in
  let first = List.hd passes in
  let passes = List.map (agree ~why:"result differs between passes" first) passes in
  let samples, metrics =
    if !trace = 0 then (List.concat passes, end_to_end passes)
    else begin
      Obs.Profile.reset ();
      Obs.Metrics.reset ();
      let traced =
        agree ~why:"traced result differs from the untraced one" first (pass ~traced:true)
      in
      let layers, total_ms = per_layer ~untraced:(List.nth passes 1) traced in
      Printf.printf
        "\nper-layer profile (%s, seed %d, %d cells; spans are inclusive, p2m.batch nests in \
         carrefour.feed, manager.epoch_tick, pv.flush and boot)\n" wname !seed (List.length cells);
      print_table ~total_ms layers;
      (List.concat passes @ traced, layers)
    end
  in
  let failed = List.filter (fun s -> s.failure <> None) samples in
  let attempted = List.length samples in
  List.iter
    (fun s ->
      Printf.printf "FAILED %s (seed %d, plan %S): %s\n" s.cell.Cells.label s.cell.Cells.seed
        s.cell.Cells.plan (Option.get s.failure))
    failed;
  if !trace = 0 then begin
    Printf.printf "\nend-to-end (%s, seed %d, %d cells x %d passes)\n" wname !seed
      (List.length cells) (List.length passes);
    print_table ~total_ms:0.0
      (metrics @ [ m "cell_fail_frac" "ratio"
                     (ratio (float_of_int (List.length failed)) (float_of_int attempted)) ])
  end;
  Printf.printf "report: %s\n" (write_report ~w ~provenance ~metrics ~samples);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = []) attempted (List.length failed) (json_metrics metrics)
