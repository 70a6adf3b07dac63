(* Tests for the policies library: spec, internal interface, manager
   (boot placement, external interface), carrefour. *)

(* -------------------------------- spec ----------------------------- *)

let test_spec_names () =
  Alcotest.(check string) "ft" "first-touch" (Policies.Spec.name Policies.Spec.first_touch);
  Alcotest.(check string) "ftc" "first-touch/carrefour"
    (Policies.Spec.name Policies.Spec.first_touch_carrefour);
  Alcotest.(check string) "r4k" "round-4k" (Policies.Spec.name Policies.Spec.round_4k);
  Alcotest.(check string) "r1g" "round-1g" (Policies.Spec.name Policies.Spec.round_1g)

let test_spec_parse () =
  let ok s expected =
    match Policies.Spec.of_string s with
    | Ok p -> Alcotest.(check bool) s true (Policies.Spec.equal p expected)
    | Error m -> Alcotest.fail m
  in
  ok "first-touch" Policies.Spec.first_touch;
  ok "ft" Policies.Spec.first_touch;
  ok "FT/carrefour" Policies.Spec.first_touch_carrefour;
  ok "round-4k+carrefour" Policies.Spec.round_4k_carrefour;
  ok "interleave" Policies.Spec.round_4k;
  ok "r1g" Policies.Spec.round_1g;
  (match Policies.Spec.of_string "round-1g/carrefour" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "r1g+carrefour must be rejected");
  match Policies.Spec.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus must be rejected"

let test_spec_runtime_selectable () =
  Alcotest.(check bool) "ft yes" true (Policies.Spec.runtime_selectable Policies.Spec.first_touch);
  Alcotest.(check bool) "r1g no (boot only)" false
    (Policies.Spec.runtime_selectable Policies.Spec.round_1g);
  Alcotest.(check int) "five specs" 5 (List.length Policies.Spec.all)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Policies.Spec.of_string (Policies.Spec.name spec) with
      | Ok parsed ->
          Alcotest.(check bool) (Policies.Spec.name spec) true (Policies.Spec.equal parsed spec)
      | Error m -> Alcotest.fail m)
    Policies.Spec.all

(* ------------------------------ internal --------------------------- *)

let small_system () =
  (* 1 GiB scaled frames: 16 frames per node. *)
  Xen.System.create ~page_scale:262144 (Numa.Amd48.topology ())

let make_domain ?(vcpus = 6) ?(gib = 4) s =
  Xen.System.create_domain s ~name:"t" ~kind:Xen.Domain.DomU ~vcpus
    ~mem_bytes:(gib * 1024 * 1024 * 1024) ()

let test_internal_map_page () =
  let s = small_system () in
  let d = make_domain s in
  (match Policies.Internal.map_page s d ~pfn:0 ~node:3 with
  | Ok mfn -> Alcotest.(check int) "on node 3" 3 (Memory.Machine.node_of_mfn s.Xen.System.machine mfn)
  | Error `Enomem -> Alcotest.fail "enomem");
  match Xen.P2m.get d.Xen.Domain.p2m 0 with
  | Xen.P2m.Mapped { writable; _ } -> Alcotest.(check bool) "writable" true writable
  | Xen.P2m.Invalid -> Alcotest.fail "not mapped"

let test_internal_map_replaces_and_frees () =
  let s = small_system () in
  let d = make_domain s in
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  ignore (Policies.Internal.map_page s d ~pfn:0 ~node:1);
  ignore (Policies.Internal.map_page s d ~pfn:0 ~node:2);
  (* Remapping freed the first frame: net usage is one frame. *)
  Alcotest.(check int) "one frame used" (free0 - 1) (Memory.Machine.free_frames s.Xen.System.machine)

let test_internal_migrate () =
  let s = small_system () in
  let d = make_domain ~gib:8 s in
  ignore (Policies.Internal.map_page s d ~pfn:5 ~node:0);
  (match Policies.Internal.migrate_page s d ~pfn:5 ~node:7 with
  | Ok mfn -> Alcotest.(check int) "now on 7" 7 (Memory.Machine.node_of_mfn s.Xen.System.machine mfn)
  | Error _ -> Alcotest.fail "migrate failed");
  Alcotest.(check (option int)) "node_of_pfn agrees" (Some 7) (Policies.Internal.node_of_pfn s d 5);
  Alcotest.(check int) "accounted" 1 d.Xen.Domain.account.Xen.Domain.migrated_pages;
  Alcotest.(check bool) "copy time charged" true
    (d.Xen.Domain.account.Xen.Domain.migrate_time > 0.0)

let test_internal_migrate_noop_same_node () =
  let s = small_system () in
  let d = make_domain s in
  ignore (Policies.Internal.map_page s d ~pfn:1 ~node:4);
  (match Policies.Internal.migrate_page s d ~pfn:1 ~node:4 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "noop migrate failed");
  Alcotest.(check int) "no page copied" 0 d.Xen.Domain.account.Xen.Domain.migrated_pages

let test_internal_migrate_unmapped () =
  let s = small_system () in
  let d = make_domain s in
  match Policies.Internal.migrate_page s d ~pfn:2 ~node:1 with
  | Error `Not_mapped -> ()
  | Ok _ | Error `Enomem -> Alcotest.fail "expected Not_mapped"

let test_internal_migrate_preserves_protection () =
  let s = small_system () in
  let d = make_domain s in
  ignore (Policies.Internal.map_page s d ~pfn:3 ~node:0);
  Xen.P2m.write_protect d.Xen.Domain.p2m 3;
  ignore (Policies.Internal.migrate_page s d ~pfn:3 ~node:2);
  match Xen.P2m.get d.Xen.Domain.p2m 3 with
  | Xen.P2m.Mapped { writable; _ } -> Alcotest.(check bool) "stays read-only" false writable
  | Xen.P2m.Invalid -> Alcotest.fail "unmapped"

(* ------------------------------- manager --------------------------- *)

let attach ?(boot = Policies.Spec.round_4k) ?(vcpus = 6) ?(gib = 4) s =
  let d = make_domain ~vcpus ~gib s in
  let rng = Sim.Rng.create ~seed:1 in
  (d, Policies.Manager.attach s d ~boot ~rng)

let test_manager_round4k_boot () =
  let s = small_system () in
  let d, m = attach s in
  Alcotest.(check int) "fully populated" d.Xen.Domain.mem_frames
    (Xen.P2m.mapped_count d.Xen.Domain.p2m);
  (* Round-robin over home nodes: consecutive pfns on consecutive homes. *)
  let home = d.Xen.Domain.home_nodes in
  for pfn = 0 to min 7 (d.Xen.Domain.mem_frames - 1) do
    Alcotest.(check (option int)) "round robin"
      (Some home.(pfn mod Array.length home))
      (Policies.Manager.node_of_pfn m pfn)
  done

let test_manager_round1g_boot () =
  let s = Xen.System.create ~page_scale:65536 (Numa.Amd48.topology ()) in
  (* 256 MiB scaled frames: 4 frames = 1 GiB. *)
  let d = Xen.System.create_domain s ~name:"r1g" ~kind:Xen.Domain.DomU ~vcpus:6 ~mem_bytes:(6 * 1024 * 1024 * 1024) () in
  let rng = Sim.Rng.create ~seed:2 in
  let m = Policies.Manager.attach s d ~boot:Policies.Spec.round_1g ~rng in
  let stats = Policies.Manager.stats m in
  Alcotest.(check int) "fully populated" d.Xen.Domain.mem_frames
    (Xen.P2m.mapped_count d.Xen.Domain.p2m);
  (* 6 GiB: first and last GiB fragmented, 4 middle 1 GiB regions. *)
  Alcotest.(check int) "four 1G regions" 4 stats.Policies.Manager.populated_1g;
  Alcotest.(check bool) "fragmented ends used finer grain" true
    (stats.Policies.Manager.populated_2m > 0 || stats.Policies.Manager.populated_4k > 0);
  (* A middle 1 GiB span lives on a single node. *)
  let n1 = Policies.Manager.node_of_pfn m 4 and n2 = Policies.Manager.node_of_pfn m 5 in
  Alcotest.(check bool) "1G span on one node" true (n1 = n2)

let test_manager_first_touch_boot_lazy () =
  let s = small_system () in
  let d, _m = attach ~boot:Policies.Spec.first_touch s in
  Alcotest.(check int) "nothing populated" 0 (Xen.P2m.mapped_count d.Xen.Domain.p2m)

let test_manager_first_touch_fault_places_locally () =
  let s = small_system () in
  let d, m = attach ~boot:Policies.Spec.first_touch s in
  (* Fault from a cpu on the second home node. *)
  let cpu = (Numa.Topology.cpu_array_of_node s.Xen.System.topo 1).(0) in
  Alcotest.(check bool) "fault mapped" true
    (Xen.Domain.handle_fault d ~costs:s.Xen.System.costs ~pfn:0 ~cpu);
  Alcotest.(check (option int)) "on toucher's node" (Some 1) (Policies.Manager.node_of_pfn m 0);
  Alcotest.(check int) "stat" 1 (Policies.Manager.stats m).Policies.Manager.first_touch_maps

let test_manager_set_policy () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch_carrefour with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "carrefour on" true (Policies.Manager.carrefour m <> None);
  Alcotest.(check string) "domain label" "first-touch/carrefour" d.Xen.Domain.policy_name;
  (match Policies.Manager.set_policy m Policies.Spec.round_4k with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "carrefour off" true (Policies.Manager.carrefour m = None);
  match Policies.Manager.set_policy m Policies.Spec.round_1g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "round-1g must be boot-only"

let test_manager_page_ops_invalidate () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  let time = Policies.Manager.page_ops_hypercall m [| Guest.Pv_queue.Release 0; Guest.Pv_queue.Release 1 |] in
  Alcotest.(check bool) "time positive" true (time > 0.0);
  Alcotest.(check bool) "entries invalid" true (Xen.P2m.get d.Xen.Domain.p2m 0 = Xen.P2m.Invalid);
  Alcotest.(check int) "frames freed" (free0 + 2) (Memory.Machine.free_frames s.Xen.System.machine);
  Alcotest.(check int) "stats invalidated" 2 (Policies.Manager.stats m).Policies.Manager.invalidated;
  (* set_policy charged one hypercall, page_ops a second. *)
  Alcotest.(check int) "hypercalls accounted" 2 d.Xen.Domain.account.Xen.Domain.hypercall_count

let test_manager_page_ops_reallocated_left () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let node_before = Policies.Manager.node_of_pfn m 2 in
  ignore
    (Policies.Manager.page_ops_hypercall m
       [| Guest.Pv_queue.Release 2; Guest.Pv_queue.Alloc 2 |]);
  Alcotest.(check (option int)) "left on its node" node_before (Policies.Manager.node_of_pfn m 2);
  Alcotest.(check bool) "still mapped" true (Xen.P2m.get d.Xen.Domain.p2m 2 <> Xen.P2m.Invalid);
  Alcotest.(check int) "left_in_place" 1 (Policies.Manager.stats m).Policies.Manager.left_in_place

let test_manager_page_ops_inert_without_first_touch () =
  let s = small_system () in
  let d, m = attach s in
  ignore (Policies.Manager.page_ops_hypercall m [| Guest.Pv_queue.Release 0 |]);
  Alcotest.(check bool) "entry survives under round-4k" true
    (Xen.P2m.get d.Xen.Domain.p2m 0 <> Xen.P2m.Invalid)

let test_manager_release_free_pages_batches () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.first_touch with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let pfns = List.init d.Xen.Domain.mem_frames (fun i -> i) in
  let time = Policies.Manager.release_free_pages m pfns in
  Alcotest.(check bool) "positive time" true (time > 0.0);
  Alcotest.(check int) "all invalidated" 0 (Xen.P2m.mapped_count d.Xen.Domain.p2m)

(* ------------------------------ carrefour -------------------------- *)

let metrics ~controller_util ~max_link_util ~hot =
  {
    Policies.Carrefour.System_component.controller_util;
    max_link_util;
    imbalance = Sim.Stats.relative_stddev controller_util;
    hot_pages = Policies.Carrefour.hot_of_samples hot;
  }

let hot_page ?(read_fraction = 0.5) pfn ~node ~count =
  let node_accesses = Array.make 8 0.0 in
  node_accesses.(node) <- count;
  { Policies.Carrefour.pfn; node_accesses; read_fraction }

let config = Policies.Carrefour.User_component.default_config

(* A [Manager.carrefour_epoch_feed] feed of one sample. *)
let feed_one (s : Policies.Carrefour.sample) sys =
  Policies.Carrefour.System_component.record_sample sys ~pfn:s.Policies.Carrefour.pfn
    ~node_accesses:s.Policies.Carrefour.node_accesses
    ~read_fraction:s.Policies.Carrefour.read_fraction

let test_carrefour_interleave_on_overload () =
  let rng = Sim.Rng.create ~seed:1 in
  let hot = List.init 10 (fun i -> hot_page i ~node:0 ~count:100.0) in
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let m = metrics ~controller_util ~max_link_util:0.0 ~hot in
  let actions =
    Policies.Carrefour.User_component.decide config ~rng ~metrics:m ~current_node:(fun _ -> Some 0)
  in
  Alcotest.(check int) "all hot pages moved" 10 (List.length actions);
  List.iter
    (fun (a : Policies.Carrefour.User_component.action) ->
      Alcotest.(check bool) "interleave reason" true
        (a.Policies.Carrefour.User_component.reason = Policies.Carrefour.User_component.Interleave);
      Alcotest.(check bool) "to an underloaded node" true
        (a.Policies.Carrefour.User_component.dest <> 0))
    actions

let test_carrefour_locality_on_saturation () =
  let rng = Sim.Rng.create ~seed:2 in
  (* Page 3 accessed only from node 5, currently on node 0. *)
  let hot = [ hot_page 3 ~node:5 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  let actions =
    Policies.Carrefour.User_component.decide config ~rng ~metrics:m ~current_node:(fun _ -> Some 0)
  in
  match actions with
  | [ a ] ->
      Alcotest.(check int) "to the accessing node" 5 a.Policies.Carrefour.User_component.dest;
      Alcotest.(check bool) "locality reason" true
        (a.Policies.Carrefour.User_component.reason = Policies.Carrefour.User_component.Locality)
  | _ -> Alcotest.failf "expected one action, got %d" (List.length actions)

let test_carrefour_idle_no_actions () =
  let rng = Sim.Rng.create ~seed:3 in
  let hot = [ hot_page 1 ~node:2 ~count:1000.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.05 ~hot in
  Alcotest.(check int) "nothing to do" 0
    (List.length
       (Policies.Carrefour.User_component.decide config ~rng ~metrics:m
          ~current_node:(fun _ -> Some 0)))

let test_carrefour_respects_budget () =
  let rng = Sim.Rng.create ~seed:4 in
  let hot = List.init 100 (fun i -> hot_page i ~node:0 ~count:100.0) in
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let m = metrics ~controller_util ~max_link_util:0.0 ~hot in
  let tight = { config with Policies.Carrefour.User_component.migration_budget = 7 } in
  Alcotest.(check int) "budget capped" 7
    (List.length
       (Policies.Carrefour.User_component.decide tight ~rng ~metrics:m
          ~current_node:(fun _ -> Some 0)))

let test_carrefour_locality_budget_hottest_first () =
  let rng = Sim.Rng.create ~seed:4 in
  (* Ten remote-read pages, hotter with the pfn; three migrations allowed. *)
  let hot = List.init 10 (fun i -> hot_page i ~node:5 ~count:(float_of_int (100 + i))) in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  let tight = { config with Policies.Carrefour.User_component.migration_budget = 3 } in
  let actions =
    Policies.Carrefour.User_component.decide tight ~rng ~metrics:m ~current_node:(fun _ -> Some 0)
  in
  Alcotest.(check (list int)) "the three hottest, hottest first" [ 9; 8; 7 ]
    (List.map
       (fun (a : Policies.Carrefour.User_component.action) -> a.Policies.Carrefour.User_component.pfn)
       actions)

let test_carrefour_min_accesses_filter () =
  let rng = Sim.Rng.create ~seed:5 in
  let hot = [ hot_page 1 ~node:0 ~count:0.5 ] in
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let m = metrics ~controller_util ~max_link_util:0.9 ~hot in
  Alcotest.(check int) "cold page ignored" 0
    (List.length
       (Policies.Carrefour.User_component.decide config ~rng ~metrics:m
          ~current_node:(fun _ -> Some 0)))

let test_carrefour_system_decay () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  Policies.Carrefour.System_component.record_samples sys [ hot_page 0 ~node:1 ~count:4.0 ];
  Alcotest.(check int) "tracked" 1 (Policies.Carrefour.System_component.tracked_pages sys);
  (* Heat halves every epoch: after a few silent epochs the page drops
     below 1 and is forgotten. *)
  for _ = 1 to 4 do
    Policies.Carrefour.System_component.record_samples sys []
  done;
  Alcotest.(check int) "forgotten" 0 (Policies.Carrefour.System_component.tracked_pages sys)

(* Satellite differential: the bounded top-k readout is exactly the
   prefix of the full-sort readout — ties included — so switching the
   hot-page selection to the heap changes no migration decision. *)
let test_carrefour_topk_matches_sort () =
  let s = small_system () in
  let d, _m = attach s in
  let sys_a = Policies.Carrefour.System_component.create s d in
  let sys_b = Policies.Carrefour.System_component.create s d in
  (* 40 pages over 5 distinct heat levels: plenty of ties for the
     pfn-ascending tie-break to matter. *)
  let samples =
    List.init 40 (fun i -> hot_page i ~node:(i mod 8) ~count:(float_of_int (30 + (10 * (i mod 5)))))
  in
  Policies.Carrefour.System_component.record_samples sys_a samples;
  Policies.Carrefour.System_component.record_samples sys_b samples;
  let counters = Numa.Counters.create s.Xen.System.topo in
  Numa.Counters.end_epoch counters ~duration:1.0;
  let full = Policies.Carrefour.System_component.read_metrics sys_a ~counters in
  let k = 12 in
  let top = Policies.Carrefour.System_component.read_metrics ~top:k sys_b ~counters in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let pfns l = List.map (fun (x : Policies.Carrefour.sample) -> x.Policies.Carrefour.pfn) l in
  let full_hot =
    Policies.Carrefour.samples_of_hot full.Policies.Carrefour.System_component.hot_pages
  in
  let top_hot =
    Policies.Carrefour.samples_of_hot top.Policies.Carrefour.System_component.hot_pages
  in
  Alcotest.(check (list int)) "top-k = prefix of the full sort"
    (pfns (take k full_hot)) (pfns top_hot);
  (* And the user component decides identically on both readouts. *)
  let controller_util = [| 0.9; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05; 0.05 |] in
  let m_full = metrics ~controller_util ~max_link_util:0.9 ~hot:full_hot in
  let m_top = metrics ~controller_util ~max_link_util:0.9 ~hot:top_hot in
  let tight = { config with Policies.Carrefour.User_component.max_hot_pages = k } in
  let a_full =
    Policies.Carrefour.User_component.decide tight ~rng:(Sim.Rng.create ~seed:42)
      ~metrics:m_full ~current_node:(fun _ -> Some 0)
  in
  let a_top =
    Policies.Carrefour.User_component.decide tight ~rng:(Sim.Rng.create ~seed:42)
      ~metrics:m_top ~current_node:(fun _ -> Some 0)
  in
  Alcotest.(check bool) "same migration set" true (a_full = a_top);
  Alcotest.(check bool) "decisions non-trivial" true (a_full <> [])

let test_carrefour_end_to_end_migration () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.round_4k_carrefour with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let counters = Numa.Counters.create s.Xen.System.topo in
  (* Saturate node of pfn 0 and feed a single-remote-node hot page. *)
  let victim_node =
    match Policies.Manager.node_of_pfn m 0 with Some n -> n | None -> Alcotest.fail "pfn 0 unmapped"
  in
  let gib = 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses counters ~src:victim_node ~dst:victim_node
    ~count:(13.0 *. gib /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch counters ~duration:1.0;
  let remote = (victim_node + 1) mod 8 in
  let sample = hot_page 0 ~node:remote ~count:1000.0 in
  (match Policies.Manager.carrefour_epoch_feed m ~counters ~feed:(feed_one sample) with
  | Some report ->
      Alcotest.(check bool) "some migration happened" true
        (report.Policies.Carrefour.interleave_migrations
         + report.Policies.Carrefour.locality_migrations
         > 0)
  | None -> Alcotest.fail "carrefour should be active");
  Alcotest.(check bool) "page moved off the hot node" true
    (Policies.Manager.node_of_pfn m 0 <> Some victim_node);
  Alcotest.(check bool) "migration accounted" true
    (d.Xen.Domain.account.Xen.Domain.migrated_pages > 0)

let test_carrefour_replication_mechanics () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  Alcotest.(check bool) "replicate" true (Policies.Carrefour.System_component.replicate sys ~pfn:0);
  Alcotest.(check bool) "marked" true (Policies.Carrefour.System_component.is_replicated sys 0);
  (* One replica frame per other node is really held. *)
  Alcotest.(check int) "7 frames held" (free0 - 7) (Memory.Machine.free_frames s.Xen.System.machine);
  Alcotest.(check bool) "double replicate refused" false
    (Policies.Carrefour.System_component.replicate sys ~pfn:0);
  Alcotest.(check bool) "copy cost charged" true
    (d.Xen.Domain.account.Xen.Domain.migrate_time > 0.0);
  Policies.Carrefour.System_component.collapse sys ~pfn:0;
  Alcotest.(check bool) "collapsed" false (Policies.Carrefour.System_component.is_replicated sys 0);
  Alcotest.(check int) "frames returned" free0 (Memory.Machine.free_frames s.Xen.System.machine)

let test_carrefour_write_collapses_replica () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  ignore (Policies.Carrefour.System_component.replicate sys ~pfn:1);
  (* A read-only sample keeps the replicas... *)
  Policies.Carrefour.System_component.record_samples sys
    [ hot_page ~read_fraction:1.0 1 ~node:2 ~count:10.0 ];
  Alcotest.(check bool) "reads keep replicas" true
    (Policies.Carrefour.System_component.is_replicated sys 1);
  (* ...but a write invalidates them. *)
  Policies.Carrefour.System_component.record_samples sys
    [ hot_page ~read_fraction:0.9 1 ~node:2 ~count:10.0 ];
  Alcotest.(check bool) "write collapses" false
    (Policies.Carrefour.System_component.is_replicated sys 1)

let test_carrefour_migrate_collapses_replica () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  ignore (Policies.Carrefour.System_component.replicate sys ~pfn:2);
  ignore (Policies.Carrefour.System_component.migrate sys ~pfn:2 ~node:5);
  Alcotest.(check bool) "migration collapses replicas" false
    (Policies.Carrefour.System_component.is_replicated sys 2)

let replication_config =
  {
    config with
    Policies.Carrefour.User_component.enable_replication = true;
    replication_read_threshold = 0.95;
    min_reader_nodes = 3;
  }

let multi_reader_page ?(read_fraction = 1.0) pfn ~count =
  { Policies.Carrefour.pfn; node_accesses = Array.make 8 count; read_fraction }

let test_carrefour_replication_decision () =
  let rng = Sim.Rng.create ~seed:6 in
  let hot = [ multi_reader_page 4 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  (match
     Policies.Carrefour.User_component.decide replication_config ~rng ~metrics:m
       ~current_node:(fun _ -> Some 0)
   with
  | [ a ] ->
      Alcotest.(check bool) "replicate reason" true
        (a.Policies.Carrefour.User_component.reason = Policies.Carrefour.User_component.Replicate)
  | actions -> Alcotest.failf "expected one replicate action, got %d" (List.length actions));
  (* Same page with writes: not a candidate. *)
  let hot = [ multi_reader_page ~read_fraction:0.7 5 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  let actions =
    Policies.Carrefour.User_component.decide replication_config ~rng ~metrics:m
      ~current_node:(fun _ -> Some 0)
  in
  Alcotest.(check bool) "written page not replicated" true
    (List.for_all
       (fun (a : Policies.Carrefour.User_component.action) ->
         a.Policies.Carrefour.User_component.reason
         <> Policies.Carrefour.User_component.Replicate)
       actions)

let test_carrefour_replication_off_by_default () =
  let rng = Sim.Rng.create ~seed:7 in
  let hot = [ multi_reader_page 6 ~count:50.0 ] in
  let m = metrics ~controller_util:(Array.make 8 0.2) ~max_link_util:0.9 ~hot in
  Alcotest.(check bool) "default config never replicates" true
    (List.for_all
       (fun (a : Policies.Carrefour.User_component.action) ->
         a.Policies.Carrefour.User_component.reason
         <> Policies.Carrefour.User_component.Replicate)
       (Policies.Carrefour.User_component.decide config ~rng ~metrics:m
          ~current_node:(fun _ -> Some 0)))

let prop_carrefour_actions_within_budget_and_hot =
  QCheck.Test.make ~name:"carrefour actions subset of hot pages, within budget" ~count:100
    QCheck.(pair (int_range 1 50) (int_range 1 64))
    (fun (pages, budget) ->
      let rng = Sim.Rng.create ~seed:(pages + budget) in
      let hot = List.init pages (fun i -> hot_page i ~node:0 ~count:100.0) in
      let controller_util = [| 0.9; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1 |] in
      let m = metrics ~controller_util ~max_link_util:0.9 ~hot in
      let cfg = { config with Policies.Carrefour.User_component.migration_budget = budget } in
      let actions =
        Policies.Carrefour.User_component.decide cfg ~rng ~metrics:m
          ~current_node:(fun _ -> Some 0)
      in
      List.length actions <= budget
      && List.for_all
           (fun (a : Policies.Carrefour.User_component.action) ->
             a.Policies.Carrefour.User_component.pfn < pages)
           actions)

(* The heat table rejects a spread it cannot store: more entries than
   nodes, or a count that is not a finite non-negative number.  A
   rejected sample leaves the table as it was. *)
let test_carrefour_rejects_bad_samples () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  let record node_accesses =
    Policies.Carrefour.System_component.record_sample sys ~pfn:0 ~node_accesses
      ~read_fraction:1.0
  in
  let prefix = "Carrefour.System_component.record_sample" in
  let rejected what node_accesses =
    match record node_accesses with
    | () -> Alcotest.failf "%s: sample accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check string) (what ^ ": message") prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  rejected "nine entries on eight nodes" (Array.make 9 1.0);
  rejected "negative count" [| 4.0; -1.0 |];
  rejected "nan count" [| Float.nan |];
  rejected "infinite count" [| Float.infinity |];
  Alcotest.(check int) "nothing tracked" 0 (Policies.Carrefour.System_component.tracked_pages sys);
  record [| 4.0; 2.0 |];
  record (Array.make 8 1.0);
  Alcotest.(check int) "short and full spreads accepted" 1
    (Policies.Carrefour.System_component.tracked_pages sys);
  let counters = Numa.Counters.create s.Xen.System.topo in
  Numa.Counters.end_epoch counters ~duration:1.0;
  let row () =
    Policies.Carrefour.samples_of_hot
      (Policies.Carrefour.System_component.read_metrics sys ~counters)
        .Policies.Carrefour.System_component.hot_pages
  in
  let before = row () in
  rejected "negative count on a tracked page" [| 1.0; 1.0; -1.0 |];
  Alcotest.(check bool) "tracked row unchanged" true (row () = before)

(* The eager heat table the lazy one must reproduce bit for bit: every
   decade halves every row and drops the rows whose halved sum falls
   below 1.0, and every decision reads the whole table. *)
module Eager_heat = struct
  type row = { pfn : int; counts : float array; mutable reads : float; mutable total : float }
  type t = { nodes : int; mutable rows : row list (* insertion order *) }

  let create nodes = { nodes; rows = [] }

  let begin_epoch t =
    t.rows <-
      List.filter
        (fun r ->
          let sum = ref 0.0 in
          Array.iteri
            (fun j c ->
              let c = c /. 2.0 in
              r.counts.(j) <- c;
              sum := !sum +. c)
            r.counts;
          if !sum < 1.0 then false
          else begin
            r.reads <- r.reads /. 2.0;
            r.total <- !sum;
            true
          end)
        t.rows

  let record t ~pfn ~node_accesses ~read_fraction =
    let added = Array.fold_left ( +. ) 0.0 node_accesses in
    match List.find_opt (fun r -> r.pfn = pfn) t.rows with
    | Some r ->
        Array.iteri (fun j x -> r.counts.(j) <- r.counts.(j) +. x) node_accesses;
        r.reads <- r.reads +. (read_fraction *. added);
        r.total <- r.total +. added
    | None ->
        let counts = Array.make t.nodes 0.0 in
        Array.blit node_accesses 0 counts 0 (Array.length node_accesses);
        t.rows <- t.rows @ [ { pfn; counts; reads = read_fraction *. added; total = added } ]

  (* Hottest first — total descending, pfn ascending — at most [cap]
     rows. *)
  let readout t ~cap =
    let rows =
      List.sort
        (fun a b ->
          let c = Float.compare b.total a.total in
          if c <> 0 then c else Int.compare a.pfn b.pfn)
        t.rows
      |> List.filteri (fun i _ -> i < cap)
    in
    {
      Policies.Carrefour.nodes = t.nodes;
      count = List.length rows;
      pfns = Array.of_list (List.map (fun r -> r.pfn) rows);
      counts = Array.concat (List.map (fun r -> Array.copy r.counts) rows);
      read_fractions =
        Array.of_list (List.map (fun r -> if r.total > 0.0 then r.reads /. r.total else 1.0) rows);
      keys = Array.of_list (List.map (fun r -> r.total) rows);
    }
end

(* One world per side: 2 MiB frames, the first [world_pages] pfns
   mapped round-robin over the nodes (a few pfns past them stay
   unmapped), and a Carrefour system component. *)
let world_pages = 40

let carrefour_world () =
  let s = Xen.System.create ~page_scale:512 (Numa.Amd48.topology ()) in
  let d = make_domain ~gib:1 s in
  for pfn = 0 to world_pages - 1 do
    ignore (Policies.Internal.map_page s d ~pfn ~node:(pfn mod 8))
  done;
  (s, d, Policies.Carrefour.System_component.create s d)

(* Monitors for one decade: quiet, a saturated 0->2 link (controllers
   below the threshold), an overloaded node-0 controller, or both. *)
let carrefour_monitors kind =
  let counters = Numa.Counters.create (Numa.Amd48.topology ()) in
  let gib = 1024.0 *. 1024.0 *. 1024.0 in
  let traffic ~src ~dst g =
    Numa.Counters.record_accesses counters ~src ~dst ~count:(g *. gib /. 64.0)
      ~bytes_per_access:64.0
  in
  if kind land 1 = 1 then traffic ~src:0 ~dst:2 3.0;
  if kind land 2 = 2 then traffic ~src:0 ~dst:0 10.0;
  Numa.Counters.end_epoch counters ~duration:1.0;
  counters

(* A random sample over the world's pfns: one reader, a dominant
   reader, or every node reading; sometimes a short spread.  Half the
   single and dominant readers sit on the page's first home node. *)
let random_sample gen =
  let pfn = Sim.Rng.int gen (world_pages + 4) in
  let acc = Array.make 8 0.0 in
  let heat = Float.ldexp (1.0 +. Sim.Rng.float gen 1.0) (Sim.Rng.int gen 8 - 1) in
  let reader () = if Sim.Rng.bool gen then pfn mod 8 else Sim.Rng.int gen 8 in
  (match Sim.Rng.int gen 3 with
  | 0 -> acc.(reader ()) <- heat
  | 1 ->
      let d = reader () in
      acc.(d) <- heat;
      acc.((d + 1 + Sim.Rng.int gen 7) mod 8) <- heat *. Sim.Rng.float gen 0.5
  | _ -> Array.fill acc 0 8 (heat /. 8.0));
  let acc = if Sim.Rng.int gen 6 = 0 then Array.sub acc 0 (1 + Sim.Rng.int gen 8) else acc in
  (pfn, acc, [| 1.0; 0.97; 0.5 |].(Sim.Rng.int gen 3))

(* Differential: the lazy heat table with its carried candidate set,
   driven through [run_epoch], against the eager table with a
   full-scan decide.  The streams mix silent decades, rows that expire
   and come back, interleave-triggering and saturating monitors, nodes
   going offline and back, migrations made outside Carrefour, the
   circuit breaker's interleave-only mode, decades without a decision,
   samples after one and a decision under another configuration; the
   configurations cover replication, a tight budget and a readout cap
   below the table size.  Each decade compares the
   migrations in order, the reports, the replicated pages, the RNG
   state and [tracked_pages]; random decades and the last one also
   compare every bit of the full readout. *)
let prop_carrefour_incremental_matches_eager =
  QCheck.Test.make ~name:"carrefour incremental decade = eager reference" ~count:300
    QCheck.(quad (int_bound 1_000_000) bool (int_bound 3) bool)
    (fun (seed, replication, cap, tight) ->
      let module C = Policies.Carrefour in
      let module S = Policies.Carrefour.System_component in
      let base =
        {
          config with
          C.User_component.enable_replication = replication;
          max_hot_pages = [| 16384; 16384; 12; 24 |].(cap);
          migration_budget = (if tight then 3 else 4096);
        }
      in
      let gen = Sim.Rng.create ~seed in
      let s_inc, d_inc, inc = carrefour_world () in
      let s_ref, d_ref, ref_sys = carrefour_world () in
      let heat = Eager_heat.create 8 in
      let rng_inc = Sim.Rng.create ~seed:(seed + 1) in
      let rng_ref = Sim.Rng.create ~seed:(seed + 1) in
      let monitors = Array.init 4 carrefour_monitors in
      let logger sys log ~pfn ~node =
        log := (pfn, node) :: !log;
        S.migrate sys ~pfn ~node
      in
      let same_readout decade =
        let a = (S.read_metrics inc ~counters:monitors.(0)).S.hot_pages in
        let b = Eager_heat.readout heat ~cap:max_int in
        let bits x n = Array.map Int64.bits_of_float (Array.sub x 0 n) in
        let n = b.C.count in
        if
          not
            (a.C.count = n
            && Array.sub a.C.pfns 0 n = b.C.pfns
            && bits a.C.counts (n * 8) = bits b.C.counts (n * 8)
            && bits a.C.read_fractions n = bits b.C.read_fractions n
            && bits a.C.keys n = bits b.C.keys n)
        then
          QCheck.Test.fail_reportf "decade %d: readouts differ (%d vs %d rows)" decade a.C.count n
      in
      let sampled = ref [] in
      let record_both () =
        let pfn, node_accesses, read_fraction = random_sample gen in
        sampled := pfn :: !sampled;
        S.record_sample inc ~pfn ~node_accesses ~read_fraction;
        if read_fraction < 0.999 && S.is_replicated ref_sys pfn then S.collapse ref_sys ~pfn;
        Eager_heat.record heat ~pfn ~node_accesses ~read_fraction
      in
      for decade = 1 to 40 do
        (* Outside Carrefour: a recently sampled page migrates, a node
           goes offline or comes back. *)
        if !sampled <> [] && Sim.Rng.int gen 4 = 0 then begin
          let recent = Array.of_list !sampled in
          let pfn = Sim.Rng.pick gen recent and node = Sim.Rng.int gen 8 in
          ignore (Policies.Internal.migrate_page s_inc d_inc ~pfn ~node);
          ignore (Policies.Internal.migrate_page s_ref d_ref ~pfn ~node)
        end;
        if Sim.Rng.int gen 6 = 0 then begin
          let node = Sim.Rng.int gen 8 in
          let online = not (Numa.Topology.node_online s_inc.Xen.System.topo node) in
          Numa.Topology.set_node_online s_inc.Xen.System.topo node online;
          Numa.Topology.set_node_online s_ref.Xen.System.topo node online
        end;
        S.begin_epoch inc;
        Eager_heat.begin_epoch heat;
        sampled := [];
        let samples = if Sim.Rng.int gen 5 = 0 then 0 else Sim.Rng.int gen 24 in
        for _ = 1 to samples do
          record_both ()
        done;
        if Sim.Rng.int gen 15 <> 0 then begin
          let counters = monitors.([| 0; 1; 1; 1; 1; 2; 3 |].(Sim.Rng.int gen 7)) in
          let config =
            if Sim.Rng.int gen 12 = 0 then
              { base with C.User_component.min_accesses = 2.0; dominant_fraction = 0.6 }
            else base
          in
          let interleave_only = Sim.Rng.int gen 8 = 0 in
          let log_inc = ref [] and log_ref = ref [] in
          let r_inc =
            C.run_epoch ~interleave_only ~migrate:(logger inc log_inc) inc ~config ~rng:rng_inc
              ~counters
          in
          (* The eager side: full readout, full-scan decide, same act. *)
          let link = Numa.Counters.last_link_utilisation counters in
          let metrics =
            {
              S.controller_util = Numa.Counters.last_controller_utilisation counters;
              max_link_util = Array.fold_left Float.max 0.0 link;
              imbalance = Numa.Counters.imbalance counters;
              hot_pages = Eager_heat.readout heat ~cap:config.C.User_component.max_hot_pages;
            }
          in
          let actions =
            C.User_component.decide config ~rng:rng_ref ~metrics
              ~node_ok:(Numa.Topology.node_online s_ref.Xen.System.topo)
              ~current_node:(S.current_node ref_sys)
          in
          let il = ref 0 and lo = ref 0 and rep = ref 0 and failed = ref 0 in
          List.iter
            (fun (a : C.User_component.action) ->
              let migrate count =
                S.collapse ref_sys ~pfn:a.C.User_component.pfn;
                if logger ref_sys log_ref ~pfn:a.C.User_component.pfn ~node:a.C.User_component.dest
                then incr count
                else incr failed
              in
              match a.C.User_component.reason with
              | (C.User_component.Replicate | C.User_component.Locality) when interleave_only -> ()
              | C.User_component.Replicate ->
                  if S.replicate ref_sys ~pfn:a.C.User_component.pfn then incr rep else incr failed
              | C.User_component.Interleave -> migrate il
              | C.User_component.Locality -> migrate lo)
            actions;
          let r_ref =
            {
              C.interleave_migrations = !il;
              locality_migrations = !lo;
              replications = !rep;
              failed = !failed;
            }
          in
          if !log_inc <> !log_ref then QCheck.Test.fail_reportf "decade %d: migrations differ" decade;
          if r_inc <> r_ref then QCheck.Test.fail_reportf "decade %d: reports differ" decade;
          if Sim.Rng.bits64 (Sim.Rng.copy rng_inc) <> Sim.Rng.bits64 (Sim.Rng.copy rng_ref) then
            QCheck.Test.fail_reportf "decade %d: RNG states differ" decade;
          for pfn = 0 to world_pages + 3 do
            if S.is_replicated inc pfn <> S.is_replicated ref_sys pfn then
              QCheck.Test.fail_reportf "decade %d: replication of pfn %d differs" decade pfn
          done;
          (* Now and then a sample lands after the decision. *)
          if Sim.Rng.int gen 15 = 0 then record_both ()
        end;
        if S.tracked_pages inc <> List.length heat.Eager_heat.rows then
          QCheck.Test.fail_reportf "decade %d: tracked %d vs %d" decade (S.tracked_pages inc)
            (List.length heat.Eager_heat.rows);
        if Sim.Rng.int gen 6 = 0 then same_readout decade
      done;
      same_readout 41;
      true)

(* The one change an untouched row sees besides scaling: its first
   decay resets [totals] from the incrementally accumulated sum to the
   ascending row sum, which can differ in the last ulp and so moves the
   read fraction.  Two samples whose sums disagree that way, with the
   replication threshold set to the decayed read fraction: the page
   must not replicate in its decade of samples, and must in the next,
   silent one — only the previous decade's touched rows bring it back
   into the candidate set. *)
let test_carrefour_decay_moves_read_fraction () =
  let module S = Policies.Carrefour.System_component in
  let gen = Sim.Rng.create ~seed:7 in
  let rec find () =
    let v () = 8.0 +. Sim.Rng.float gen 8.0 in
    let a = [| v (); v (); v () |] and b = [| v (); v (); v () |] in
    let sum x = Array.fold_left ( +. ) 0.0 x in
    let incremental = sum a +. sum b and decayed = sum (Array.map2 ( +. ) a b) in
    if incremental > decayed then (a, b, incremental, decayed) else find ()
  in
  let a, b, incremental, decayed = find () in
  let before = 0.5 *. incremental /. incremental and after = 0.5 *. incremental /. decayed in
  Alcotest.(check bool) "decay raises the read fraction" true (after > before);
  let _, _, sys = carrefour_world () in
  let config =
    {
      replication_config with
      Policies.Carrefour.User_component.replication_read_threshold = after;
    }
  in
  let counters = carrefour_monitors 1 in
  let decade samples =
    S.begin_epoch sys;
    List.iter (fun node_accesses -> S.record_sample sys ~pfn:3 ~node_accesses ~read_fraction:0.5) samples;
    (Policies.Carrefour.run_epoch sys ~config ~rng:(Sim.Rng.create ~seed:1) ~counters)
      .Policies.Carrefour.replications
  in
  Alcotest.(check int) "not while sampled" 0 (decade [ a; b ]);
  Alcotest.(check int) "after the decay" 1 (decade [])

(* ------------------------- failure injection ------------------------ *)

(* Exhaust one node's 16 one-GiB frames. *)
let drain_node s node =
  let rec go acc =
    match Memory.Machine.alloc_frame s.Xen.System.machine ~node with
    | Some mfn -> go (mfn :: acc)
    | None -> acc
  in
  go []

let test_failure_migrate_to_full_node () =
  let s = small_system () in
  let d = make_domain s in
  ignore (Policies.Internal.map_page s d ~pfn:0 ~node:0);
  let held = drain_node s 7 in
  (match Policies.Internal.migrate_page s d ~pfn:0 ~node:7 with
  | Error `Enomem -> ()
  | Ok _ -> Alcotest.fail "migration to a full node must fail"
  | Error `Not_mapped -> Alcotest.fail "page is mapped");
  (* The page survives on its original node; nothing leaked. *)
  Alcotest.(check (option int)) "still on node 0" (Some 0) (Policies.Internal.node_of_pfn s d 0);
  Alcotest.(check int) "no pages copied" 0 d.Xen.Domain.account.Xen.Domain.migrated_pages;
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

let test_failure_map_when_machine_full () =
  let s = small_system () in
  let d = make_domain s in
  let held = List.concat_map (fun node -> drain_node s node) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  (match Policies.Internal.map_page s d ~pfn:1 ~node:3 with
  | Error `Enomem -> ()
  | Ok _ -> Alcotest.fail "map must fail when the machine is full");
  Alcotest.(check bool) "entry still invalid" true (Xen.P2m.get d.Xen.Domain.p2m 1 = Xen.P2m.Invalid);
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

let test_failure_carrefour_reports_failed () =
  let s = small_system () in
  let d, m = attach s in
  (match Policies.Manager.set_policy m Policies.Spec.round_4k_carrefour with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore d;
  let victim_node =
    match Policies.Manager.node_of_pfn m 0 with Some n -> n | None -> Alcotest.fail "unmapped"
  in
  (* Fill every other node so no migration can find a frame. *)
  let held =
    List.concat_map
      (fun node -> if node = victim_node then [] else drain_node s node)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let counters = Numa.Counters.create s.Xen.System.topo in
  let gib = 1024.0 *. 1024.0 *. 1024.0 in
  Numa.Counters.record_accesses counters ~src:victim_node ~dst:victim_node
    ~count:(13.0 *. gib /. 64.0) ~bytes_per_access:64.0;
  Numa.Counters.end_epoch counters ~duration:1.0;
  (match
     Policies.Manager.carrefour_epoch_feed m ~counters
       ~feed:(feed_one (hot_page 0 ~node:victim_node ~count:1000.0))
   with
  | Some report ->
      Alcotest.(check bool) "failure counted, no crash" true
        (report.Policies.Carrefour.failed > 0
        || report.Policies.Carrefour.interleave_migrations
           + report.Policies.Carrefour.locality_migrations
           = 0)
  | None -> Alcotest.fail "carrefour active");
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

let test_failure_replicate_leaks_nothing () =
  let s = small_system () in
  let d, _m = attach s in
  let sys = Policies.Carrefour.System_component.create s d in
  let held = drain_node s 6 in
  let free0 = Memory.Machine.free_frames s.Xen.System.machine in
  Alcotest.(check bool) "replicate fails (node 6 full)" false
    (Policies.Carrefour.System_component.replicate sys ~pfn:0);
  Alcotest.(check int) "no frames leaked" free0 (Memory.Machine.free_frames s.Xen.System.machine);
  List.iter (fun mfn -> Memory.Machine.free s.Xen.System.machine ~mfn ~order:0) held

(* ------------------------------ evacuation ------------------------- *)

let mapped_pfns d =
  List.sort compare
    (Xen.P2m.fold_mapped d.Xen.Domain.p2m ~init:[] ~f:(fun acc pfn _ -> pfn :: acc))

let test_ecc_handlers () =
  let s = small_system () in
  let d, m = attach s in
  let machine = s.Xen.System.machine in
  let node0 = match Policies.Manager.node_of_pfn m 0 with Some n -> n | None -> Alcotest.fail "unmapped" in
  (* CE: scrubbed in place — same node, frame stays online. *)
  Policies.Manager.handle_ecc_ce m ~pfn:0;
  Alcotest.(check (option int)) "ce leaves the page" (Some node0) (Policies.Manager.node_of_pfn m 0);
  (* UE: the frame is poisoned — remapped elsewhere, old frame retired. *)
  let bad_mfn =
    match Xen.P2m.get d.Xen.Domain.p2m 1 with
    | Xen.P2m.Mapped { mfn; _ } -> mfn
    | Xen.P2m.Invalid -> Alcotest.fail "pfn 1 unmapped"
  in
  Policies.Manager.handle_ecc_ue m ~pfn:1;
  Alcotest.(check bool) "pfn 1 still mapped" true (Xen.P2m.get d.Xen.Domain.p2m 1 <> Xen.P2m.Invalid);
  Alcotest.(check bool) "poisoned frame offlined" true (Memory.Machine.is_offlined machine bad_mfn);
  (* Unmapped pfns are a no-op for both handlers. *)
  let off0 = (Policies.Manager.degrade m).Policies.Manager.offlined in
  Policies.Manager.handle_ecc_ue m ~pfn:(d.Xen.Domain.mem_frames - 1 + 1_000_000);
  Alcotest.(check int) "unmapped ue ignored" off0
    (Policies.Manager.degrade m).Policies.Manager.offlined;
  let dg = Policies.Manager.degrade m in
  Alcotest.(check int) "one ce counted" 1 dg.Policies.Manager.ecc_ce;
  Alcotest.(check int) "one ue counted" 1 dg.Policies.Manager.ecc_ue;
  Alcotest.(check bool) "consistent" true (Xen.P2m.check_consistent d.Xen.Domain.p2m)

(* The RAS satellite property: after a node failure the drain completes,
   the P2M maps exactly the pfns it mapped before the failure, none of
   them resident on the failed node or on an offlined machine frame,
   and frame accounting still balances. *)
let prop_evacuation_conserves_frames =
  QCheck.Test.make ~name:"evacuation conserves the guest frame set" ~count:60
    QCheck.(pair (int_range 0 1000) (int_range 1 4))
    (fun (n, gib) ->
      let s = Xen.System.create ~page_scale:16384 (Numa.Amd48.topology ()) in
      let d =
        Xen.System.create_domain s ~name:"evac" ~kind:Xen.Domain.DomU ~vcpus:6
          ~mem_bytes:(gib * 1024 * 1024 * 1024) ()
      in
      let rng = Sim.Rng.create ~seed:((n * 7919) + 3) in
      let m = Policies.Manager.attach s d ~boot:Policies.Spec.round_4k ~rng in
      let pre = mapped_pfns d in
      let home = d.Xen.Domain.home_nodes in
      let node = home.(n mod Array.length home) in
      let machine = s.Xen.System.machine in
      Numa.Topology.set_node_online s.Xen.System.topo node false;
      ignore (Memory.Machine.offline_node machine node);
      Policies.Manager.request_evacuation m ~node;
      let epoch = ref 0 in
      while Policies.Manager.evacuating m >= 0 && !epoch < 2_000 do
        Policies.Manager.epoch_tick m ~epoch:!epoch ();
        incr epoch
      done;
      let resident_bad = ref 0 in
      Xen.P2m.iter_mapped d.Xen.Domain.p2m (fun _ mfn ->
          if
            Memory.Machine.is_offlined machine mfn
            || Memory.Machine.node_of_mfn machine mfn = node
          then incr resident_bad);
      Policies.Manager.evacuating m = -1
      && mapped_pfns d = pre
      && !resident_bad = 0
      && (Policies.Manager.degrade m).Policies.Manager.evacuated > 0
      && Xen.P2m.check_consistent d.Xen.Domain.p2m)

let suite =
  [
    ( "policies.failure-injection",
      [
        Alcotest.test_case "migrate to full node" `Quick test_failure_migrate_to_full_node;
        Alcotest.test_case "map when machine full" `Quick test_failure_map_when_machine_full;
        Alcotest.test_case "carrefour out of memory" `Quick test_failure_carrefour_reports_failed;
        Alcotest.test_case "replicate leaks nothing" `Quick test_failure_replicate_leaks_nothing;
      ] );
    ( "policies.evacuation",
      [
        Alcotest.test_case "ecc handlers" `Quick test_ecc_handlers;
        QCheck_alcotest.to_alcotest prop_evacuation_conserves_frames;
      ] );
    ( "policies.spec",
      [
        Alcotest.test_case "names" `Quick test_spec_names;
        Alcotest.test_case "parse" `Quick test_spec_parse;
        Alcotest.test_case "runtime selectable" `Quick test_spec_runtime_selectable;
        Alcotest.test_case "name roundtrip" `Quick test_spec_roundtrip;
      ] );
    ( "policies.internal",
      [
        Alcotest.test_case "map page" `Quick test_internal_map_page;
        Alcotest.test_case "map replaces and frees" `Quick test_internal_map_replaces_and_frees;
        Alcotest.test_case "migrate" `Quick test_internal_migrate;
        Alcotest.test_case "migrate noop same node" `Quick test_internal_migrate_noop_same_node;
        Alcotest.test_case "migrate unmapped" `Quick test_internal_migrate_unmapped;
        Alcotest.test_case "migrate preserves protection" `Quick
          test_internal_migrate_preserves_protection;
      ] );
    ( "policies.manager",
      [
        Alcotest.test_case "round-4k boot" `Quick test_manager_round4k_boot;
        Alcotest.test_case "round-1g boot" `Quick test_manager_round1g_boot;
        Alcotest.test_case "first-touch boot lazy" `Quick test_manager_first_touch_boot_lazy;
        Alcotest.test_case "first-touch fault placement" `Quick
          test_manager_first_touch_fault_places_locally;
        Alcotest.test_case "set_policy hypercall" `Quick test_manager_set_policy;
        Alcotest.test_case "page ops invalidate" `Quick test_manager_page_ops_invalidate;
        Alcotest.test_case "reallocated left in place" `Quick test_manager_page_ops_reallocated_left;
        Alcotest.test_case "inert without first-touch" `Quick
          test_manager_page_ops_inert_without_first_touch;
        Alcotest.test_case "release free pages" `Quick test_manager_release_free_pages_batches;
      ] );
    ( "policies.carrefour",
      [
        Alcotest.test_case "interleave on overload" `Quick test_carrefour_interleave_on_overload;
        Alcotest.test_case "locality on saturation" `Quick test_carrefour_locality_on_saturation;
        Alcotest.test_case "idle does nothing" `Quick test_carrefour_idle_no_actions;
        Alcotest.test_case "budget" `Quick test_carrefour_respects_budget;
        Alcotest.test_case "locality budget, hottest first" `Quick
          test_carrefour_locality_budget_hottest_first;
        Alcotest.test_case "min accesses" `Quick test_carrefour_min_accesses_filter;
        Alcotest.test_case "heat decay" `Quick test_carrefour_system_decay;
        Alcotest.test_case "top-k readout = full sort" `Quick test_carrefour_topk_matches_sort;
        Alcotest.test_case "end-to-end migration" `Quick test_carrefour_end_to_end_migration;
        Alcotest.test_case "replication mechanics" `Quick test_carrefour_replication_mechanics;
        Alcotest.test_case "write collapses replicas" `Quick test_carrefour_write_collapses_replica;
        Alcotest.test_case "migrate collapses replicas" `Quick
          test_carrefour_migrate_collapses_replica;
        Alcotest.test_case "replication decision" `Quick test_carrefour_replication_decision;
        Alcotest.test_case "replication off by default" `Quick
          test_carrefour_replication_off_by_default;
        QCheck_alcotest.to_alcotest prop_carrefour_actions_within_budget_and_hot;
        Alcotest.test_case "bad samples rejected" `Quick test_carrefour_rejects_bad_samples;
        Alcotest.test_case "decay moves the read fraction" `Quick
          test_carrefour_decay_moves_read_fraction;
        QCheck_alcotest.to_alcotest prop_carrefour_incremental_matches_eager;
      ] );
  ]
