(* Tests for the numa library: topology, latency, counters, amd48. *)

let check_float = Alcotest.(check (float 1e-9))

let line_topology () =
  (* 0 - 1 - 2 - 3 chain. *)
  Numa.Topology.create ~nodes:4 ~cpus_per_node:2 ~mem_per_node:(1 lsl 30)
    ~controller_gib_per_s:10.0
    ~links:[ (0, 1, 4.0); (1, 2, 4.0); (2, 3, 4.0) ]

(* ----------------------------- topology --------------------------- *)

let test_topology_counts () =
  let t = line_topology () in
  Alcotest.(check int) "nodes" 4 (Numa.Topology.node_count t);
  Alcotest.(check int) "cpus" 8 (Numa.Topology.cpu_count t);
  Alcotest.(check int) "cpus/node" 2 (Numa.Topology.cpus_per_node t);
  Alcotest.(check int) "total mem" (4 * (1 lsl 30)) (Numa.Topology.total_mem t)

let test_topology_cpu_mapping () =
  let t = line_topology () in
  Alcotest.(check int) "cpu 0 on node 0" 0 (Numa.Topology.node_of_cpu t 0);
  Alcotest.(check int) "cpu 5 on node 2" 2 (Numa.Topology.node_of_cpu t 5);
  Alcotest.(check (list int)) "cpus of node 1" [ 2; 3 ]
    (Array.to_list (Numa.Topology.cpu_array_of_node t 1))

let test_topology_distance () =
  let t = line_topology () in
  Alcotest.(check int) "self" 0 (Numa.Topology.distance t 2 2);
  Alcotest.(check int) "adjacent" 1 (Numa.Topology.distance t 0 1);
  Alcotest.(check int) "far" 3 (Numa.Topology.distance t 0 3);
  Alcotest.(check int) "diameter" 3 (Numa.Topology.diameter t)

let test_topology_route () =
  let t = line_topology () in
  let route = Numa.Topology.route t 0 3 in
  Alcotest.(check int) "3 links" 3 (List.length route);
  (* The route is connected and directed from 0 to 3. *)
  let rec connected src = function
    | [] -> src = 3
    | (l : Numa.Topology.link) :: rest -> l.Numa.Topology.src = src && connected l.Numa.Topology.dst rest
  in
  Alcotest.(check bool) "connected path" true (connected 0 route);
  Alcotest.(check (list Alcotest.int)) "empty self route" []
    (List.map (fun (l : Numa.Topology.link) -> l.Numa.Topology.link_id) (Numa.Topology.route t 1 1))

let test_topology_neighbours () =
  let t = line_topology () in
  Alcotest.(check (list int)) "middle node" [ 0; 2 ] (Numa.Topology.neighbours t 1)

let test_topology_rejects_disconnected () =
  Alcotest.check_raises "disconnected graph"
    (Invalid_argument "Topology.create: disconnected link graph") (fun () ->
      ignore
        (Numa.Topology.create ~nodes:3 ~cpus_per_node:1 ~mem_per_node:1024
           ~controller_gib_per_s:1.0 ~links:[ (0, 1, 1.0) ]))

let test_topology_rejects_bad_link () =
  Alcotest.check_raises "self link" (Invalid_argument "Topology.create: bad link endpoint")
    (fun () ->
      ignore
        (Numa.Topology.create ~nodes:2 ~cpus_per_node:1 ~mem_per_node:1024
           ~controller_gib_per_s:1.0
           ~links:[ (0, 0, 1.0) ]))

(* ------------------------------ amd48 ----------------------------- *)

let test_amd48_shape () =
  let t = Numa.Amd48.topology () in
  Alcotest.(check int) "8 nodes" 8 (Numa.Topology.node_count t);
  Alcotest.(check int) "48 cpus" 48 (Numa.Topology.cpu_count t);
  Alcotest.(check int) "128 GiB" (128 * 1024 * 1024 * 1024) (Numa.Topology.total_mem t);
  Alcotest.(check int) "diameter 2 (Section 5.1)" 2 (Numa.Topology.diameter t)

let test_amd48_link_bandwidths () =
  let t = Numa.Amd48.topology () in
  let max_bw =
    Array.fold_left (fun acc (l : Numa.Topology.link) -> Float.max acc l.Numa.Topology.gib_per_s)
      0.0 (Numa.Topology.links t)
  in
  check_float "max 6 GiB/s" 6.0 max_bw

let test_amd48_every_pair_reachable () =
  let t = Numa.Amd48.topology () in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let d = Numa.Topology.distance t a b in
      if a = b then Alcotest.(check int) "self 0" 0 d
      else if d < 1 || d > 2 then Alcotest.failf "distance %d-%d = %d" a b d
    done
  done

(* ----------------------------- latency ---------------------------- *)

let test_latency_table3_idle () =
  let lat = Numa.Amd48.latency in
  check_float "local" 156.0 (Numa.Latency.mem_cycles lat ~hops:0 ~saturation:0.0);
  check_float "1 hop" 276.0 (Numa.Latency.mem_cycles lat ~hops:1 ~saturation:0.0);
  check_float "2 hops" 383.0 (Numa.Latency.mem_cycles lat ~hops:2 ~saturation:0.0)

let test_latency_table3_contended () =
  let lat = Numa.Amd48.latency in
  check_float "local" 697.0 (Numa.Latency.mem_cycles lat ~hops:0 ~saturation:1.0);
  check_float "1 hop" 740.0 (Numa.Latency.mem_cycles lat ~hops:1 ~saturation:1.0);
  check_float "2 hops" 863.0 (Numa.Latency.mem_cycles lat ~hops:2 ~saturation:1.0)

let test_latency_caches () =
  let lat = Numa.Amd48.latency in
  check_float "L1" 5.0 (Numa.Latency.cache_cycles lat Numa.Latency.L1);
  check_float "L2" 16.0 (Numa.Latency.cache_cycles lat Numa.Latency.L2);
  check_float "L3" 48.0 (Numa.Latency.cache_cycles lat Numa.Latency.L3)

let test_latency_clamps () =
  let lat = Numa.Amd48.latency in
  check_float "saturation above 1 clamps" 697.0
    (Numa.Latency.mem_cycles lat ~hops:0 ~saturation:3.0);
  check_float "hops beyond max clamp" 383.0
    (Numa.Latency.mem_cycles lat ~hops:9 ~saturation:0.0)

let test_latency_seconds () =
  let lat = Numa.Amd48.latency in
  check_float "156 cycles at 2.2 GHz" (156.0 /. 2.2e9)
    (Numa.Latency.access_seconds lat ~hops:0 ~saturation:0.0)

let prop_latency_monotone_in_saturation =
  QCheck.Test.make ~name:"latency monotone in saturation" ~count:300
    QCheck.(triple (int_range 0 2) (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (hops, s1, s2) ->
      let lat = Numa.Amd48.latency in
      let lo = Float.min s1 s2 and hi = Float.max s1 s2 in
      Numa.Latency.mem_cycles lat ~hops ~saturation:lo
      <= Numa.Latency.mem_cycles lat ~hops ~saturation:hi +. 1e-9)

let prop_latency_monotone_in_hops =
  QCheck.Test.make ~name:"idle latency monotone in hops" ~count:100
    QCheck.(float_range 0.0 1.0)
    (fun _ ->
      let lat = Numa.Amd48.latency in
      let l h = Numa.Latency.mem_cycles lat ~hops:h ~saturation:0.0 in
      l 0 < l 1 && l 1 < l 2)

(* ----------------------------- counters --------------------------- *)

let test_counters_local_remote () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  Numa.Counters.record_accesses c ~src:0 ~dst:0 ~count:10.0 ~bytes_per_access:64.0;
  Numa.Counters.record_accesses c ~src:0 ~dst:3 ~count:5.0 ~bytes_per_access:64.0;
  check_float "local" 10.0 (Numa.Counters.local_accesses c);
  check_float "remote" 5.0 (Numa.Counters.remote_accesses c);
  check_float "node 0 accesses" 10.0 (Numa.Counters.node_accesses c).(0);
  check_float "node 3 accesses" 5.0 (Numa.Counters.node_accesses c).(3)

let test_counters_remote_charges_route_links () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  Numa.Counters.record_accesses c ~src:0 ~dst:3 ~count:1.0 ~bytes_per_access:64.0;
  let route = Numa.Topology.route t 0 3 in
  let bytes = Numa.Counters.link_bytes c in
  List.iter
    (fun (l : Numa.Topology.link) ->
      check_float "link charged" 64.0 bytes.(l.Numa.Topology.link_id))
    route;
  let total = Array.fold_left ( +. ) 0.0 bytes in
  check_float "only route links charged" (64.0 *. float_of_int (List.length route)) total

let test_counters_imbalance () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  for dst = 0 to 7 do
    Numa.Counters.record_accesses c ~src:0 ~dst ~count:10.0 ~bytes_per_access:64.0
  done;
  check_float "balanced" 0.0 (Numa.Counters.imbalance c);
  Numa.Counters.record_accesses c ~src:1 ~dst:0 ~count:800.0 ~bytes_per_access:64.0;
  Alcotest.(check bool) "imbalanced now" true (Numa.Counters.imbalance c > 1.0)

let test_counters_zero_access_epoch () =
  (* Regression: an epoch with no recorded accesses must not divide by
     zero — imbalance reads 0 and closing the epoch is harmless. *)
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  check_float "imbalance with no accesses" 0.0 (Numa.Counters.imbalance c);
  Numa.Counters.end_epoch c ~duration:1.0;
  check_float "imbalance after empty epoch" 0.0 (Numa.Counters.imbalance c);
  check_float "interconnect load after empty epoch" 0.0 (Numa.Counters.interconnect_load c);
  let finite x = match Float.classify_float x with FP_nan | FP_infinite -> false | _ -> true in
  Alcotest.(check bool) "values finite" true
    (finite (Numa.Counters.imbalance c) && finite (Numa.Counters.interconnect_load c))

let test_counters_epoch_utilisation () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  (* 13 GiB/s controller: half that in one second is 50 % utilisation. *)
  let bytes = 6.5 *. 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses c ~src:2 ~dst:2 ~count:(bytes /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  let util = Numa.Counters.last_controller_utilisation c in
  Alcotest.(check (float 0.01)) "node 2 at 50%" 0.5 util.(2);
  Alcotest.(check (float 0.01)) "node 0 idle" 0.0 util.(0);
  Alcotest.(check int) "one epoch" 1 (Numa.Counters.epoch_count c)

let test_counters_epoch_resets_bytes () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  Numa.Counters.record_accesses c ~src:0 ~dst:0 ~count:1e6 ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  let util = Numa.Counters.last_controller_utilisation c in
  check_float "second epoch idle" 0.0 util.(0);
  (* Cumulative access counts survive epochs. *)
  check_float "cumulative kept" 1e6 (Numa.Counters.node_accesses c).(0)

let test_counters_raw_amplitude () =
  (* Footnote 3: the raw reading idles at 50 % and saturates at 80 %. *)
  check_float "idle" 0.5 (Numa.Counters.raw_link_reading ~utilisation:0.0);
  check_float "saturated" 0.8 (Numa.Counters.raw_link_reading ~utilisation:1.0);
  check_float "midpoint" 0.65 (Numa.Counters.raw_link_reading ~utilisation:0.5);
  check_float "roundtrip" 0.5
    (Numa.Counters.normalise_link_reading ~raw:(Numa.Counters.raw_link_reading ~utilisation:0.5));
  check_float "clamps low" 0.0 (Numa.Counters.normalise_link_reading ~raw:0.2)

let test_counters_max_route_saturation () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  (* Saturate node 5's controller. *)
  let bytes = 13.0 *. 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses c ~src:5 ~dst:5 ~count:(bytes /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Alcotest.(check (float 0.01)) "route into 5 saturated" 1.0
    (Numa.Counters.max_route_saturation c ~src:0 ~dst:5);
  Alcotest.(check (float 0.01)) "unrelated route idle" 0.0
    (Numa.Counters.max_route_saturation c ~src:1 ~dst:2)

let test_counters_interconnect_load () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  check_float "no epoch yet" 0.0 (Numa.Counters.interconnect_load c);
  (* Saturate one link: 3 GiB/s for one second over link 0<->1 (6 GiB/s): 50 %. *)
  let bytes = 3.0 *. 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses c ~src:0 ~dst:1 ~count:(bytes /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Alcotest.(check (float 0.01)) "50% on most loaded link" 0.5
    (Numa.Counters.interconnect_load c)

let test_counters_reset () =
  let t = Numa.Amd48.topology () in
  let c = Numa.Counters.create t in
  Numa.Counters.record_accesses c ~src:0 ~dst:1 ~count:100.0 ~bytes_per_access:64.0;
  Numa.Counters.end_epoch c ~duration:1.0;
  Numa.Counters.reset c;
  check_float "accesses cleared" 0.0 (Numa.Counters.node_accesses c).(1);
  Alcotest.(check int) "epochs cleared" 0 (Numa.Counters.epoch_count c);
  check_float "interconnect cleared" 0.0 (Numa.Counters.interconnect_load c)

let prop_counters_conservation =
  QCheck.Test.make ~name:"access counts are conserved" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (triple (int_range 0 7) (int_range 0 7) (float_range 1.0 1000.0)))
    (fun events ->
      let t = Numa.Amd48.topology () in
      let c = Numa.Counters.create t in
      List.iter
        (fun (src, dst, count) ->
          Numa.Counters.record_accesses c ~src ~dst ~count ~bytes_per_access:64.0)
        events;
      let total = Array.fold_left ( +. ) 0.0 (Numa.Counters.node_accesses c) in
      let expected = List.fold_left (fun acc (_, _, n) -> acc +. n) 0.0 events in
      Float.abs (total -. expected) < 1e-6 *. expected
      && Float.abs (Numa.Counters.local_accesses c +. Numa.Counters.remote_accesses c -. expected)
         < 1e-6 *. expected)

(* One epoch of random traffic: rows of 8 destination counts (zeros
   included, so the row path's skip is exercised) from random source
   nodes, and the epoch length that closes it. *)
let counter_epochs_gen =
  let count =
    QCheck.Gen.(frequency [ (3, return 0.0); (5, float_range 1.0 1e7); (1, float_range 0.0 1.0) ])
  in
  let row = QCheck.Gen.(pair (int_range 0 7) (array_size (return 8) count)) in
  let epoch = QCheck.Gen.(pair (list_size (int_range 0 12) row) (oneofl [ 0.001; 0.01; 0.1 ])) in
  QCheck.make
    ~print:(fun epochs -> Printf.sprintf "%d epochs" (List.length epochs))
    QCheck.Gen.(list_size (int_range 1 6) epoch)

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b
let float_arrays_bits_equal a b = Array.length a = Array.length b && Array.for_all2 bits_equal a b

(* Everything a counter exports, compared bit for bit. *)
let counters_bits_equal a b =
  let module C = Numa.Counters in
  float_arrays_bits_equal (C.node_accesses a) (C.node_accesses b)
  && float_arrays_bits_equal (C.node_bytes a) (C.node_bytes b)
  && float_arrays_bits_equal (C.link_bytes a) (C.link_bytes b)
  && bits_equal (C.local_accesses a) (C.local_accesses b)
  && bits_equal (C.remote_accesses a) (C.remote_accesses b)
  && bits_equal (C.imbalance a) (C.imbalance b)
  && C.epoch_count a = C.epoch_count b
  && float_arrays_bits_equal (C.last_controller_utilisation a) (C.last_controller_utilisation b)
  && float_arrays_bits_equal (C.last_link_utilisation a) (C.last_link_utilisation b)
  && bits_equal (C.interconnect_load a) (C.interconnect_load b)
  && float_arrays_bits_equal (C.avg_controller_utilisation a) (C.avg_controller_utilisation b)

(* The engine commits each vCPU's destination row through [record_row];
   it must leave every accumulator with the bits of the per-entry
   [record_accesses] loop it replaced.  The rows sit at their offsets
   in one flat array, as in the engine's [thread_dst]. *)
let prop_counters_row_equals_entries =
  QCheck.Test.make ~name:"record_row = per-entry record_accesses, bitwise" ~count:300
    counter_epochs_gen (fun epochs ->
      let t = Numa.Amd48.topology () in
      let nodes = Numa.Topology.node_count t in
      let per_entry = Numa.Counters.create t in
      let by_row = Numa.Counters.create t in
      List.for_all
        (fun (rows, duration) ->
          let flat = Array.concat (List.map snd rows) in
          List.iteri
            (fun i (src, row) ->
              for dst = 0 to nodes - 1 do
                if row.(dst) > 0.0 then
                  Numa.Counters.record_accesses per_entry ~src ~dst ~count:row.(dst)
                    ~bytes_per_access:64.0
              done;
              Numa.Counters.record_row by_row ~src flat ~pos:(i * nodes) ~bytes_per_access:64.0)
            rows;
          Numa.Counters.end_epoch per_entry ~duration;
          Numa.Counters.end_epoch by_row ~duration;
          counters_bits_equal per_entry by_row)
        epochs)

(* [max_route_saturation] walks precomputed link ids; the reference
   walks [Topology.route]'s link list. *)
let prop_counters_saturation_matches_route =
  QCheck.Test.make ~name:"max_route_saturation = walk of Topology.route" ~count:200
    counter_epochs_gen (fun epochs ->
      let t = Numa.Amd48.topology () in
      let nodes = Numa.Topology.node_count t in
      let c = Numa.Counters.create t in
      List.for_all
        (fun (rows, duration) ->
          List.iter
            (fun (src, row) ->
              Array.iteri
                (fun dst count ->
                  Numa.Counters.record_accesses c ~src ~dst ~count ~bytes_per_access:64.0)
                row)
            rows;
          Numa.Counters.end_epoch c ~duration;
          let ctrl = Numa.Counters.last_controller_utilisation c in
          let link = Numa.Counters.last_link_utilisation c in
          List.for_all
            (fun src ->
              List.for_all
                (fun dst ->
                  let reference =
                    List.fold_left
                      (fun sat (l : Numa.Topology.link) ->
                        if link.(l.Numa.Topology.link_id) > sat then link.(l.Numa.Topology.link_id)
                        else sat)
                      ctrl.(dst) (Numa.Topology.route t src dst)
                  in
                  bits_equal reference (Numa.Counters.max_route_saturation c ~src ~dst))
                (List.init nodes Fun.id))
            (List.init nodes Fun.id))
        epochs)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "numa.topology",
      [
        Alcotest.test_case "counts" `Quick test_topology_counts;
        Alcotest.test_case "cpu mapping" `Quick test_topology_cpu_mapping;
        Alcotest.test_case "distance" `Quick test_topology_distance;
        Alcotest.test_case "route" `Quick test_topology_route;
        Alcotest.test_case "neighbours" `Quick test_topology_neighbours;
        Alcotest.test_case "rejects disconnected" `Quick test_topology_rejects_disconnected;
        Alcotest.test_case "rejects bad link" `Quick test_topology_rejects_bad_link;
      ] );
    ( "numa.amd48",
      [
        Alcotest.test_case "shape" `Quick test_amd48_shape;
        Alcotest.test_case "link bandwidths" `Quick test_amd48_link_bandwidths;
        Alcotest.test_case "pairs within 2 hops" `Quick test_amd48_every_pair_reachable;
      ] );
    ( "numa.latency",
      [
        Alcotest.test_case "Table 3 idle" `Quick test_latency_table3_idle;
        Alcotest.test_case "Table 3 contended" `Quick test_latency_table3_contended;
        Alcotest.test_case "caches" `Quick test_latency_caches;
        Alcotest.test_case "clamps" `Quick test_latency_clamps;
        Alcotest.test_case "seconds" `Quick test_latency_seconds;
        qcheck prop_latency_monotone_in_saturation;
        qcheck prop_latency_monotone_in_hops;
      ] );
    ( "numa.counters",
      [
        Alcotest.test_case "local/remote" `Quick test_counters_local_remote;
        Alcotest.test_case "route links charged" `Quick test_counters_remote_charges_route_links;
        Alcotest.test_case "imbalance" `Quick test_counters_imbalance;
        Alcotest.test_case "zero-access epoch" `Quick test_counters_zero_access_epoch;
        Alcotest.test_case "epoch utilisation" `Quick test_counters_epoch_utilisation;
        Alcotest.test_case "epoch resets bytes" `Quick test_counters_epoch_resets_bytes;
        Alcotest.test_case "raw 50-80% amplitude" `Quick test_counters_raw_amplitude;
        Alcotest.test_case "max route saturation" `Quick test_counters_max_route_saturation;
        Alcotest.test_case "interconnect load" `Quick test_counters_interconnect_load;
        Alcotest.test_case "reset" `Quick test_counters_reset;
        qcheck prop_counters_conservation;
        qcheck prop_counters_row_equals_entries;
        qcheck prop_counters_saturation_matches_route;
      ] );
  ]
