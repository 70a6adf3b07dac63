type sample = {
  pfn : Memory.Page.pfn;
  node_accesses : float array;
  read_fraction : float;
}

(* Flat hot-page readout: row [i] of [counts] (length [nodes]) is the
   per-node access spread of [pfns.(i)], hottest first.  One readout is
   three arrays instead of thousands of boxed samples, which is what
   makes the per-period user-component work cheap. *)
type hot = {
  nodes : int;
  count : int;
  pfns : int array;
  counts : float array;  (* count * nodes, row-major *)
  read_fractions : float array;
  keys : float array;
      (* ranking key per row (the heat table's accumulated total);
         rows need not arrive sorted — decide ranks by (key desc,
         pfn asc), the top-k heap's total order *)
}

let hot_of_samples samples =
  let nodes = List.fold_left (fun m s -> max m (Array.length s.node_accesses)) 0 samples in
  let count = List.length samples in
  let pfns = Array.make count 0 in
  let counts = Array.make (count * nodes) 0.0 in
  let read_fractions = Array.make count 1.0 in
  let keys = Array.make count 0.0 in
  List.iteri
    (fun i s ->
      pfns.(i) <- s.pfn;
      Array.blit s.node_accesses 0 counts (i * nodes) (Array.length s.node_accesses);
      read_fractions.(i) <- s.read_fraction;
      keys.(i) <- Array.fold_left ( +. ) 0.0 s.node_accesses)
    samples;
  { nodes; count; pfns; counts; read_fractions; keys }

let samples_of_hot hot =
  List.init hot.count (fun i ->
      {
        pfn = hot.pfns.(i);
        node_accesses = Array.sub hot.counts (i * hot.nodes) hot.nodes;
        read_fraction = hot.read_fractions.(i);
      })

(* Rank order over row indices — (key descending, pfn ascending), the
   top-k heap's total order — served lazily from a binary heap built in
   place over [rows.(0 .. len-1)]: [walk_ranked] calls [f] on the rows
   best first until [f] returns [false], so a walk the migration budget
   cuts short pays O(len + visited * log len), not a full sort.  The
   order is strict on distinct pfns, so the walk never depends on how
   [rows] was filled. *)
let walk_ranked keys pfns rows len f =
  let before a b =
    let ka = Array.unsafe_get keys a and kb = Array.unsafe_get keys b in
    ka > kb || (ka = kb && Array.unsafe_get pfns a < Array.unsafe_get pfns b)
  in
  let rec sift len i =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && before rows.(l + 1) rows.(l) then l + 1 else l in
      if before rows.(c) rows.(i) then begin
        let x = rows.(i) in
        rows.(i) <- rows.(c);
        rows.(c) <- x;
        sift len c
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift len i
  done;
  let len = ref len and more = ref true in
  while !more && !len > 0 do
    let best = rows.(0) in
    decr len;
    rows.(0) <- rows.(!len);
    sift !len 0;
    more := f best
  done

(* Sum of one row, in ascending index order — the same operation
   sequence as [Array.fold_left ( +. ) 0.0] over a per-page spread, so
   thresholds computed from a row bit-match the historical sample
   path. *)
let row_total counts ~base ~nodes =
  let s = ref 0.0 in
  for j = 0 to nodes - 1 do
    s := !s +. Array.unsafe_get counts (base + j)
  done;
  !s

(* The user component's configuration ([User_component.config]),
   declared ahead of the heat table so the table can remember which
   configuration its carried candidate set was computed under. *)
type user_config = {
  mc_threshold : float;
  ic_threshold : float;
  dominant_fraction : float;
  min_accesses : float;
  migration_budget : int;
  max_hot_pages : int;
  enable_replication : bool;
  replication_read_threshold : float;
  min_reader_nodes : int;
}

(* Growable int stack: the heat table's pfn lists (touched rows,
   expiry buckets, carried candidates). *)
type ivec = { mutable items : int array; mutable len : int }

let ivec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let items = Array.make (max 16 (2 * v.len)) 0 in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end;
  Array.unsafe_set v.items v.len x;
  v.len <- v.len + 1

let iter_ivec v f =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.items i)
  done

module System_component = struct
  (* Structure-of-arrays heat table.  [slot] direct-maps a pfn to its
     row (+1, 0 = absent); rows [0 .. live-1] are the tracked pages,
     in no particular order.  [totals] carries the incrementally
     accumulated heat (the historical [heat.total] field): it can
     differ from the row sum in the last ulp, and it is what keys the
     top-k readout, so it is stored rather than recomputed.

     Decay is lazy.  Each decade halves every count, and a row whose
     halved sum drops below 1.0 is forgotten; instead of sweeping the
     table, a row remembers the decade it was last brought up to date
     ([stamp]) and catches up on the halvings it missed when a sample
     lands on it or a decision reads it ([refresh]).  Expiry comes
     from [death], the decade whose decay drops the row, computed when
     its decade of last touch closes and filed in [buckets] by that
     decade, so [live] is exact after every [begin_epoch]. *)
  type t = {
    system : Xen.System.t;
    domain : Xen.Domain.t;
    nodes : int;
    mutable slot : int array;
    mutable pfns : int array;
    mutable counts : float array;  (* cap * nodes, row-major *)
    mutable reads : float array;
    mutable totals : float array;
    mutable stamp : int array;  (* decade the row's decay is applied up to *)
    mutable death : int array;  (* decade whose decay drops the row *)
    mutable mark : int array;  (* last [gen] that visited the row *)
    mutable live : int;
    replicas : (Memory.Page.pfn, Memory.Page.mfn list) Hashtbl.t;
    mutable epoch : int;
    buckets : ivec array;  (* pfns by death decade, mod [horizon] *)
    mutable touched : ivec;  (* pfns sampled this decade, once per sample *)
    mutable prev_touched : ivec;  (* ... and in the previous decade *)
    mutable gen : int;
    (* The locality candidates carried between decisions (see
       [decide_decade]): the pfns that qualified at the last decision,
       the conditions it was taken under, and the pages it acted on. *)
    mutable carried : ivec;
    mutable carried_next : ivec;
    acted : ivec;
    mutable carried_valid : bool;
    mutable eval_epoch : int;
    mutable eval_version : int;
    eval_online : Bytes.t;
    mutable eval_config : user_config option;
    mutable scratch : hot;  (* candidate readout buffers, reused *)
  }

  let initial_rows = 1024

  (* A finite row sum is below 2^1024, so no row outlives 1024 decays:
     a ring of 2048 buckets never wraps onto a pending decade. *)
  let horizon = 2048

  let never = max_int

  let empty_hot nodes cap =
    {
      nodes;
      count = 0;
      pfns = Array.make cap 0;
      counts = Array.make (cap * nodes) 0.0;
      read_fractions = Array.make cap 1.0;
      keys = Array.make cap 0.0;
    }

  let create system domain =
    let nodes = Numa.Topology.node_count system.Xen.System.topo in
    {
      system;
      domain;
      nodes;
      slot = Array.make 1024 0;
      pfns = Array.make initial_rows 0;
      counts = Array.make (initial_rows * nodes) 0.0;
      reads = Array.make initial_rows 0.0;
      totals = Array.make initial_rows 0.0;
      stamp = Array.make initial_rows 0;
      death = Array.make initial_rows 0;
      mark = Array.make initial_rows 0;
      live = 0;
      replicas = Hashtbl.create 64;
      epoch = 0;
      buckets = Array.init horizon (fun _ -> ivec ());
      touched = ivec ();
      prev_touched = ivec ();
      gen = 0;
      carried = ivec ();
      carried_next = ivec ();
      acted = ivec ();
      carried_valid = false;
      eval_epoch = -1;
      eval_version = 0;
      eval_online = Bytes.make nodes '\000';
      eval_config = None;
      scratch = empty_hot nodes 0;
    }

  let ensure_slot t pfn =
    let n = Array.length t.slot in
    if pfn >= n then begin
      let n' = ref (n * 2) in
      while pfn >= !n' do
        n' := !n' * 2
      done;
      let slot = Array.make !n' 0 in
      Array.blit t.slot 0 slot 0 n;
      t.slot <- slot
    end

  let ensure_row t =
    let cap = Array.length t.pfns in
    if t.live >= cap then begin
      let cap' = cap * 2 in
      let grow a len' fill =
        let a' = Array.make len' fill in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      t.pfns <- grow t.pfns cap' 0;
      t.counts <- grow t.counts (cap' * t.nodes) 0.0;
      t.reads <- grow t.reads cap' 0.0;
      t.totals <- grow t.totals cap' 0.0;
      t.stamp <- grow t.stamp cap' 0;
      t.death <- grow t.death cap' 0;
      t.mark <- grow t.mark cap' 0
    end

  (* Bring row [r] up to the current decade: the [/. 2.0] steps it
     missed on every count and on [reads], then [totals] reset to the
     ascending row sum — the very operations, in the very order, that
     the missed per-decade decays would have applied. *)
  let refresh t r =
    let k = t.epoch - Array.unsafe_get t.stamp r in
    if k > 0 then begin
      let nodes = t.nodes in
      let base = r * nodes in
      let total = ref 0.0 in
      for j = 0 to nodes - 1 do
        let c = ref (Array.unsafe_get t.counts (base + j)) in
        for _ = 1 to k do
          c := !c /. 2.0
        done;
        Array.unsafe_set t.counts (base + j) !c;
        total := !total +. !c
      done;
      let rd = ref t.reads.(r) in
      for _ = 1 to k do
        rd := !rd /. 2.0
      done;
      t.reads.(r) <- !rd;
      t.totals.(r) <- !total;
      t.stamp.(r) <- t.epoch
    end

  let refresh_all t =
    for r = 0 to t.live - 1 do
      refresh t r
    done

  (* Decays until a row summing to [s] falls below 1.0.  Halving is
     exact, so [k] decays scale every count and every partial sum of
     the ascending row sum by 2^-k: the row sums to [s *. 2^-k], which
     for [s = m * 2^e], m in [0.5, 1), is below 1.0 first at k = e.
     Counts are finite and non-negative ([record_sample] checks), so
     only an overflowed sum is infinite, and it never decays away. *)
  let lifetime s =
    if s < 1.0 then 1 else if s = Float.infinity then never else snd (Float.frexp s)

  (* Swap-remove: the last row fills the hole. *)
  let remove_row t r =
    t.slot.(t.pfns.(r)) <- 0;
    let last = t.live - 1 in
    if r <> last then begin
      let nodes = t.nodes in
      Array.blit t.counts (last * nodes) t.counts (r * nodes) nodes;
      t.pfns.(r) <- t.pfns.(last);
      t.reads.(r) <- t.reads.(last);
      t.totals.(r) <- t.totals.(last);
      t.stamp.(r) <- t.stamp.(last);
      t.death.(r) <- t.death.(last);
      t.mark.(r) <- t.mark.(last);
      t.slot.(t.pfns.(r)) <- r + 1
    end;
    t.live <- last

  let collapse t ~pfn =
    match Hashtbl.find_opt t.replicas pfn with
    | None -> ()
    | Some mfns ->
        List.iter (fun mfn -> Memory.Machine.free t.system.Xen.System.machine ~mfn ~order:0) mfns;
        Hashtbl.remove t.replicas pfn

  let begin_epoch t =
    (* A decade that closes without a decision leaves its samples
       unexamined, so the carried candidates no longer cover them. *)
    if t.eval_epoch <> t.epoch then t.carried_valid <- false;
    (* The closing decade's samples fix each touched row's sum, hence
       the decade its decay will drop it. *)
    let e = t.epoch in
    iter_ivec t.touched (fun pfn ->
        let r = t.slot.(pfn) - 1 in
        let d = lifetime (row_total t.counts ~base:(r * t.nodes) ~nodes:t.nodes) in
        if d = never then t.death.(r) <- never
        else begin
          t.death.(r) <- e + d;
          push t.buckets.((e + d) land (horizon - 1)) pfn
        end);
    t.epoch <- e + 1;
    (* Bucket entries go stale when a later sample moves a row's death
       on, or the row dies and its pfn returns as a new row: only a row
       whose current death is this decade is dropped. *)
    let due = t.buckets.(t.epoch land (horizon - 1)) in
    iter_ivec due (fun pfn ->
        let r = t.slot.(pfn) - 1 in
        if r >= 0 && t.death.(r) = t.epoch then remove_row t r);
    due.len <- 0;
    let recycled = t.prev_touched in
    recycled.len <- 0;
    t.prev_touched <- t.touched;
    t.touched <- recycled

  let record_sample t ~pfn ~node_accesses ~read_fraction =
    let n = Array.length node_accesses in
    if n > t.nodes then
      invalid_arg
        (Printf.sprintf
           "Carrefour.System_component.record_sample: %d node_accesses entries for %d nodes" n
           t.nodes);
    (* The ascending sum, as [Array.fold_left ( +. ) 0.0] computes it. *)
    let added = ref 0.0 in
    for j = 0 to n - 1 do
      let x = node_accesses.(j) in
      if not (x >= 0.0 && x < Float.infinity) then
        invalid_arg
          (Printf.sprintf
             "Carrefour.System_component.record_sample: node_accesses.(%d) = %h is not a \
              finite non-negative count"
             j x);
      added := !added +. x
    done;
    let added = !added in
    (* Any write to a replicated page invalidates its replicas:
       the copies would otherwise go stale.  This write-collapse
       thrashing is what makes replication marginal on read-mostly
       (but not read-only) workloads — the paper's reason for
       discarding the heuristic. *)
    if read_fraction < 0.999 && Hashtbl.length t.replicas > 0 && Hashtbl.mem t.replicas pfn then
      collapse t ~pfn;
    (* A sample after this decade's decision is one the next decision
       would not re-examine. *)
    if t.eval_epoch = t.epoch then t.carried_valid <- false;
    ensure_slot t pfn;
    let r = t.slot.(pfn) - 1 in
    if r >= 0 then begin
      refresh t r;
      let base = r * t.nodes in
      for j = 0 to n - 1 do
        t.counts.(base + j) <- t.counts.(base + j) +. node_accesses.(j)
      done;
      t.reads.(r) <- t.reads.(r) +. (read_fraction *. added);
      t.totals.(r) <- t.totals.(r) +. added
    end
    else begin
      ensure_row t;
      let r = t.live in
      let base = r * t.nodes in
      Array.fill t.counts base t.nodes 0.0;
      Array.blit node_accesses 0 t.counts base n;
      t.pfns.(r) <- pfn;
      t.reads.(r) <- read_fraction *. added;
      t.totals.(r) <- added;
      t.stamp.(r) <- t.epoch;
      t.slot.(pfn) <- r + 1;
      t.live <- r + 1
    end;
    push t.touched pfn

  let record_samples t samples =
    begin_epoch t;
    List.iter
      (fun s ->
        record_sample t ~pfn:s.pfn ~node_accesses:s.node_accesses
          ~read_fraction:s.read_fraction)
      samples

  type metrics = {
    controller_util : float array;
    max_link_util : float;
    imbalance : float;
    hot_pages : hot;
  }

  let metrics_of counters hot =
    {
      controller_util = Numa.Counters.last_controller_utilisation counters;
      max_link_util = Array.fold_left Float.max 0.0 (Numa.Counters.last_link_utilisation counters);
      imbalance = Numa.Counters.imbalance counters;
      hot_pages = hot;
    }

  let read_fraction_of_row t r = if t.totals.(r) > 0.0 then t.reads.(r) /. t.totals.(r) else 1.0

  (* Copy row [r] of the table into row [i] of [hot]. *)
  let copy_row t r (hot : hot) i =
    let nodes = t.nodes in
    hot.pfns.(i) <- t.pfns.(r);
    Array.blit t.counts (r * nodes) hot.counts (i * nodes) nodes;
    hot.read_fractions.(i) <- read_fraction_of_row t r;
    hot.keys.(i) <- t.totals.(r)

  let hot_of_rows t rows n =
    let hot = empty_hot t.nodes n in
    for i = 0 to n - 1 do
      copy_row t rows.(i) hot i
    done;
    { hot with count = n }

  (* Sorted readout of an up-to-date table. *)
  let read_hot ?top t =
    match top with
    | Some k when k > 0 ->
        (* Bounded selection: a k-sized min-heap over the live heat
           totals instead of sorting the whole table.  Keys are the
           incremental totals — the same values the unbounded path
           sorts by — so [~top:k] is exactly its prefix. *)
        let heap = Sim.Stats.Topk.create (max 1 (min k t.live)) in
        for r = 0 to t.live - 1 do
          Sim.Stats.Topk.add heap ~key:t.totals.(r) t.pfns.(r)
        done;
        let picked = Sim.Stats.Topk.sorted_desc heap in
        let rows = Array.map (fun (_, pfn) -> t.slot.(pfn) - 1) picked in
        hot_of_rows t rows (Array.length rows)
    | Some _ | None ->
        let rows = Array.init t.live (fun r -> r) in
        Array.sort
          (fun a b ->
            (* Same total order as the top-k heap — hotter first, ties
               toward the smaller pfn. *)
            let c = Float.compare t.totals.(b) t.totals.(a) in
            if c <> 0 then c else Int.compare t.pfns.(a) t.pfns.(b))
          rows;
        hot_of_rows t rows t.live

  (* Readout of an up-to-date table in table order, no ranking: the
     user component sorts only the rows that clear its heat threshold,
     which is far cheaper than ranking the whole table every period.
     The row arrays ALIAS the live table — they may be longer than
     [count] and must not outlive the next table mutation
     (decay/sample), which is fine for the immediate decide-and-act
     consumer and avoids copying the whole table every period. *)
  let unranked_hot t =
    let n = t.live in
    let read_fractions = Array.make n 1.0 in
    for r = 0 to n - 1 do
      read_fractions.(r) <- read_fraction_of_row t r
    done;
    { nodes = t.nodes; count = n; pfns = t.pfns; counts = t.counts; read_fractions; keys = t.totals }

  let read_metrics ?top t ~counters =
    refresh_all t;
    metrics_of counters (read_hot ?top t)

  let current_node t pfn = Internal.node_of_pfn t.system t.domain pfn

  let is_replicated t pfn = Hashtbl.mem t.replicas pfn

  let replicated_pages t = Hashtbl.length t.replicas

  let migrate t ~pfn ~node =
    collapse t ~pfn;
    match Internal.migrate_page t.system t.domain ~pfn ~node with
    | Ok _ -> true
    | Error (`Enomem | `Not_mapped) -> false

  (* Replication: hold one frame per other node and charge the copies;
     the page itself keeps its P2M entry (a real implementation would
     need per-vCPU translations, which is exactly why the paper's Xen
     port discards the heuristic). *)
  let replicate t ~pfn =
    if Hashtbl.mem t.replicas pfn then false
    else
      match Internal.node_of_pfn t.system t.domain pfn with
      | None -> false
      | Some home ->
          let machine = t.system.Xen.System.machine in
          let topo = t.system.Xen.System.topo in
          let frames = ref [] in
          let ok = ref true in
          for node = 0 to Numa.Topology.node_count topo - 1 do
            (* Offline nodes get no replica: readers there are gone. *)
            if node <> home && Numa.Topology.node_online topo node && !ok then begin
              match Memory.Machine.alloc_frame machine ~node with
              | Some mfn -> frames := mfn :: !frames
              | None -> ok := false
            end
          done;
          if not !ok then begin
            List.iter (fun mfn -> Memory.Machine.free machine ~mfn ~order:0) !frames;
            false
          end
          else begin
            let costs = t.system.Xen.System.costs in
            let bytes = float_of_int (Memory.Machine.frame_bytes machine) in
            let copies = float_of_int (List.length !frames) in
            let account = t.domain.Xen.Domain.account in
            account.Xen.Domain.migrate_time <-
              account.Xen.Domain.migrate_time
              +. (copies *. (costs.Xen.Costs.page_migrate_fixed +. (bytes *. costs.Xen.Costs.copy_byte)));
            Hashtbl.replace t.replicas pfn !frames;
            true
          end

  let tracked_pages t = t.live
end

module User_component = struct
  type config = user_config = {
    mc_threshold : float;
    ic_threshold : float;
    dominant_fraction : float;
    min_accesses : float;
    migration_budget : int;
    max_hot_pages : int;
    enable_replication : bool;
    replication_read_threshold : float;
    min_reader_nodes : int;
  }

  let default_config =
    {
      mc_threshold = 0.55;
      ic_threshold = 0.60;
      dominant_fraction = 0.80;
      min_accesses = 8.0;
      migration_budget = 4096;
      max_hot_pages = 16384;
      enable_replication = false;
      replication_read_threshold = 0.95;
      min_reader_nodes = 3;
    }

  type reason = Interleave | Locality | Replicate

  type action = { pfn : Memory.Page.pfn; dest : Numa.Topology.node; reason : reason }

  let reader_nodes counts ~base ~nodes total =
    let readers = ref 0 in
    for j = 0 to nodes - 1 do
      if counts.(base + j) > 0.02 *. total then incr readers
    done;
    !readers

  (* The interleave heuristic's node sets: controllers over the
     threshold and 25% over the mean, and the allowed destinations
     below the mean.  Destinations must be in the dynamic node mask: a
     failing node is never a migration target (it may still be a
     source). *)
  let pressure config ~node_ok utils =
    let mean_util = Sim.Stats.mean utils in
    let overloaded =
      Array.to_list utils
      |> List.mapi (fun n u -> (n, u))
      |> List.filter (fun (_, u) -> u > config.mc_threshold && u > 1.25 *. mean_util)
      |> List.map fst
    in
    let underloaded =
      Array.to_list utils
      |> List.mapi (fun n u -> (n, u))
      |> List.filter (fun (n, u) -> u < mean_util && node_ok n)
      |> List.map fst
      |> Array.of_list
    in
    (overloaded, underloaded)

  let interleave_fires (overloaded, underloaded) = overloaded <> [] && Array.length underloaded > 0

  let replicate_row config hot i tot =
    config.enable_replication
    && hot.read_fractions.(i) >= config.replication_read_threshold
    && reader_nodes hot.counts ~base:(i * hot.nodes) ~nodes:hot.nodes tot
       >= config.min_reader_nodes

  let best_node hot i =
    let base = i * hot.nodes in
    let best = ref 0 in
    for j = 0 to hot.nodes - 1 do
      if hot.counts.(base + j) > hot.counts.(base + !best) then best := j
    done;
    !best

  (* Whether row [i] of [hot], summing to [tot] (at least
     [min_accesses]), takes part in the interconnect heuristic: a
     replication candidate, or a page whose dominant accessor is an
     allowed node other than the one holding it. *)
  let locality_row config ~node_ok ~current_node hot i tot =
    replicate_row config hot i tot
    ||
    let best = best_node hot i in
    hot.counts.((i * hot.nodes) + best) /. tot >= config.dominant_fraction
    && node_ok best
    && match current_node hot.pfns.(i) with Some node -> node <> best | None -> false

  let decide ?(node_ok = fun (_ : int) -> true) config ~rng ~metrics ~current_node =
    let hot = metrics.System_component.hot_pages in
    let n = min config.max_hot_pages hot.count in
    let nodes = hot.nodes in
    let ((overloaded, underloaded) as pressure) =
      pressure config ~node_ok metrics.System_component.controller_util
    in
    let controllers_overloaded = interleave_fires pressure in
    let interconnect_saturated =
      metrics.System_component.max_link_util > config.ic_threshold
    in
    let actions = ref [] and seen = Hashtbl.create 64 and budget = ref config.migration_budget in
    let emit pfn dest reason =
      if !budget > 0 && not (Hashtbl.mem seen pfn) then begin
        Hashtbl.replace seen pfn ();
        decr budget;
        actions := { pfn; dest; reason } :: !actions
      end
    in
    if controllers_overloaded || interconnect_saturated then begin
      (* Collect the rows clearing the heat threshold: only they can
         act, so only (subsets of) them are ever ranked — (key
         descending, pfn ascending), the heat table's readout order. *)
      let order = Array.make n 0 in
      let tot = Array.make (max 1 n) 0.0 in
      let m = ref 0 in
      for i = 0 to n - 1 do
        let t = row_total hot.counts ~base:(i * nodes) ~nodes in
        if t >= config.min_accesses then begin
          order.(!m) <- i;
          tot.(i) <- t;
          incr m
        end
      done;
      let m = !m in
      (* Qualification is pure — the walks only mutate [seen]/[budget]
         through [emit] — so each heuristic filters its qualifying rows
         first and then visits just that subset in rank order.  The
         comparator is a strict total order (distinct pfns break key
         ties), so the subset's order is its restriction of the fully
         sorted readout: emits, their order, and the random-node draws
         are exactly those of a walk over the full ranking. *)
      let sel = Array.make (max 1 m) 0 in
      (* Interleave heuristic: hot pages sitting on an overloaded
         controller move to a random underloaded node. *)
      if controllers_overloaded then begin
        let k = ref 0 in
        for s = 0 to m - 1 do
          let i = order.(s) in
          match current_node hot.pfns.(i) with
          | Some node when List.mem node overloaded ->
              sel.(!k) <- i;
              incr k
          | Some _ | None -> ()
        done;
        walk_ranked hot.keys hot.pfns sel !k (fun i ->
            (* The random draw happens for every qualifying row, budget
               or not — it was an [emit] argument in the full walk. *)
            emit hot.pfns.(i) (Sim.Rng.pick rng underloaded) Interleave;
            true)
      end;
      (* Under interconnect saturation: replicate hot read-only pages
         with many readers (when enabled), migrate single-remote-reader
         pages to their reader — hottest first, until the budget is
         spent. *)
      if interconnect_saturated && !budget > 0 then begin
        let k = ref 0 in
        for s = 0 to m - 1 do
          let i = order.(s) in
          if locality_row config ~node_ok ~current_node hot i tot.(i) then begin
            sel.(!k) <- i;
            incr k
          end
        done;
        walk_ranked hot.keys hot.pfns sel !k (fun i ->
            if replicate_row config hot i tot.(i) then emit hot.pfns.(i) 0 Replicate
            else emit hot.pfns.(i) (best_node hot i) Locality;
            !budget > 0)
      end
    end;
    List.rev !actions
end

type report = {
  interleave_migrations : int;
  locality_migrations : int;
  replications : int;
  failed : int;
}

(* Record the online-node mask the decision runs under; [true] if it
   differs from the one the last decision ran under. *)
let online_mask_changed (sys : System_component.t) topo =
  let changed = ref false in
  for n = 0 to sys.nodes - 1 do
    let c = if Numa.Topology.node_online topo n then '\001' else '\000' in
    if Bytes.get sys.eval_online n <> c then begin
      changed := true;
      Bytes.set sys.eval_online n c
    end
  done;
  !changed

(* The candidate readout: every row of the carried set, this decade's
   touched rows, the pages the last decision acted on and, when
   replication is on, the previous decade's touched rows, brought up
   to date and kept if they qualify for the locality walk.  Fills
   [cand] with the kept pfns; the readout aliases the scratch buffers. *)
let gather_candidates (sys : System_component.t) ~config ~node_ok ~current_node cand =
  let bound =
    sys.carried.len + sys.touched.len + sys.acted.len
    + if config.enable_replication then sys.prev_touched.len else 0
  in
  if Array.length sys.scratch.pfns < bound then
    sys.scratch <- System_component.empty_hot sys.nodes (max bound (2 * Array.length sys.scratch.pfns));
  let hot = sys.scratch in
  let nodes = sys.nodes in
  let m = ref 0 in
  sys.gen <- sys.gen + 1;
  let visit ~full pfn =
    let r = sys.slot.(pfn) - 1 in
    if r >= 0 && sys.mark.(r) <> sys.gen then begin
      sys.mark.(r) <- sys.gen;
      System_component.refresh sys r;
      let i = !m in
      System_component.copy_row sys r hot i;
      let tot = row_total hot.counts ~base:(i * nodes) ~nodes in
      if
        tot >= config.min_accesses
        && ((not full) || User_component.locality_row config ~node_ok ~current_node hot i tot)
      then begin
        push cand pfn;
        m := i + 1
      end
    end
  in
  iter_ivec sys.touched (visit ~full:true);
  iter_ivec sys.acted (visit ~full:true);
  if config.enable_replication then iter_ivec sys.prev_touched (visit ~full:true);
  (* A carried row none of those lists holds has only been scaled since
     it qualified: same node, same mask verdict, same dominant share,
     reader count and read fraction.  It still qualifies exactly when
     its sum still clears [min_accesses]. *)
  iter_ivec sys.carried (visit ~full:false);
  { hot with count = !m }

(* One decision: the readout plus [User_component.decide], over the
   whole table or over the carried locality candidates.

   The candidates are exact.  Between two decisions an untouched row
   is only scaled by a power of two, which moves neither its best
   node, its dominant share, its reader count nor — once its first
   decay has reset [totals] to the row sum — its read fraction, and
   its sum only falls: a row that did not qualify cannot start to,
   unless a sample lands on it, a decay resets its [totals] (the rows
   touched the decade before, which matter to replication only), it
   moves node, or the online mask changes.  So the locality walk's
   qualifying rows lie in [gather_candidates]'s union as long as the
   P2M is as the last act left it (Carrefour's own moves are the
   acted pages), the mask and configuration are unchanged, the last
   decision ran this decade or the one before and saw every sample,
   and it walked the whole table.  Otherwise — and whenever the
   interleave heuristic fires or the table outgrows [max_hot_pages],
   both of which walk more than the locality candidates — every row is
   brought up to date and walked, which also recomputes the set. *)
let decide_decade (sys : System_component.t) ~config ~rng ~counters =
  let topo = sys.system.Xen.System.topo in
  let node_ok n = Numa.Topology.node_online topo n in
  let current_node = System_component.current_node sys in
  let pressure =
    User_component.pressure config ~node_ok (Numa.Counters.last_controller_utilisation counters)
  in
  let decide hot =
    User_component.decide config ~rng ~metrics:(System_component.metrics_of counters hot)
      ~node_ok ~current_node
  in
  let mask_changed = online_mask_changed sys topo in
  let fits = sys.live <= config.max_hot_pages in
  let cand = sys.carried_next in
  cand.len <- 0;
  let actions =
    if
      sys.carried_valid && (not mask_changed) && fits
      && Xen.P2m.version sys.domain.Xen.Domain.p2m = sys.eval_version
      && sys.eval_config = Some config
      && not (User_component.interleave_fires pressure)
    then
      decide (gather_candidates sys ~config ~node_ok ~current_node cand)
    else begin
      System_component.refresh_all sys;
      let hot =
        if fits then System_component.unranked_hot sys
        else System_component.read_hot ~top:config.max_hot_pages sys
      in
      let actions = decide hot in
      if fits then
        for i = 0 to hot.count - 1 do
          let tot = row_total hot.counts ~base:(i * hot.nodes) ~nodes:hot.nodes in
          if
            tot >= config.min_accesses
            && User_component.locality_row config ~node_ok ~current_node hot i tot
          then push cand hot.pfns.(i)
        done;
      sys.carried_valid <- fits;
      actions
    end
  in
  sys.carried_next <- sys.carried;
  sys.carried <- cand;
  sys.eval_epoch <- sys.epoch;
  sys.eval_config <- Some config;
  actions

let run_epoch ?(interleave_only = false) ?migrate sys ~config ~rng ~counters =
  let actions =
    Obs.Profile.span Obs.Profile.Carrefour_decide (fun () ->
        decide_decade sys ~config ~rng ~counters)
  in
  let do_migrate =
    match migrate with
    | None -> fun ~pfn ~node -> System_component.migrate sys ~pfn ~node
    | Some f ->
        (* A custom migrator (the manager's resilient path) still has to
           collapse replicas before moving the page. *)
        fun ~pfn ~node ->
          System_component.collapse sys ~pfn;
          f ~pfn ~node
  in
  let interleave = ref 0 and locality = ref 0 and replications = ref 0 and failed = ref 0 in
  sys.acted.len <- 0;
  List.iter
    (fun (a : User_component.action) ->
      push sys.acted a.pfn;
      match a.reason with
      | (User_component.Replicate | User_component.Locality) when interleave_only ->
          (* Degraded mode: the circuit breaker only trusts the cheap
             interleave heuristic; locality/replication work is shed. *)
          ()
      | User_component.Replicate ->
          if System_component.replicate sys ~pfn:a.pfn then incr replications else incr failed
      | User_component.Interleave ->
          if do_migrate ~pfn:a.pfn ~node:a.dest then incr interleave else incr failed
      | User_component.Locality ->
          if do_migrate ~pfn:a.pfn ~node:a.dest then incr locality else incr failed)
    actions;
  (* The next decision's carried candidates assume the P2M as this act
     leaves it. *)
  sys.eval_version <- Xen.P2m.version sys.domain.Xen.Domain.p2m;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr ~by:(List.length actions) "policies.carrefour.actions";
    Obs.Metrics.incr ~by:!interleave "policies.carrefour.interleave_migrations";
    Obs.Metrics.incr ~by:!locality "policies.carrefour.locality_migrations";
    Obs.Metrics.incr ~by:!replications "policies.carrefour.replications";
    Obs.Metrics.incr ~by:!failed "policies.carrefour.failed";
    Obs.Metrics.gauge "policies.carrefour.tracked_pages"
      (float_of_int (System_component.tracked_pages sys))
  end;
  {
    interleave_migrations = !interleave;
    locality_migrations = !locality;
    replications = !replications;
    failed = !failed;
  }
