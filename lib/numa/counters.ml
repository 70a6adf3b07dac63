(* The local/remote access totals sit in an all-float record, which
   OCaml stores flat: adding into one writes the float in place, where
   a mutable float field of the mixed record [t] would box a fresh
   float on every store. *)
type split = { mutable local : float; mutable remote : float }

type t = {
  topo : Topology.t;
  nodes : int;
  routes : int array array;
      (* [routes.(src * nodes + dst)]: the link ids of [Topology.route],
         in route order; empty for a local access.  Built once, so the
         per-access path walks an int array instead of a link list. *)
  node_accesses : float array;
  node_bytes : float array;
  link_bytes : float array;
  split : split;
  (* Per-epoch byte counters, reset by [end_epoch]. *)
  epoch_node_bytes : float array;
  epoch_link_bytes : float array;
  mutable epochs : int;
  last_controller_util : float array;
  last_link_util : float array;
  sum_controller_util : float array;
  mutable sum_max_link_util : float;
}

let gib = 1024.0 *. 1024.0 *. 1024.0

let create topo =
  let nodes = Topology.node_count topo in
  let nlinks = Array.length (Topology.links topo) in
  {
    topo;
    nodes;
    routes =
      Array.init (nodes * nodes) (fun i ->
          Array.of_list
            (List.map
               (fun (l : Topology.link) -> l.link_id)
               (Topology.route topo (i / nodes) (i mod nodes))));
    node_accesses = Array.make nodes 0.0;
    node_bytes = Array.make nodes 0.0;
    link_bytes = Array.make nlinks 0.0;
    split = { local = 0.0; remote = 0.0 };
    epoch_node_bytes = Array.make nodes 0.0;
    epoch_link_bytes = Array.make nlinks 0.0;
    epochs = 0;
    last_controller_util = Array.make nodes 0.0;
    last_link_util = Array.make nlinks 0.0;
    sum_controller_util = Array.make nodes 0.0;
    sum_max_link_util = 0.0;
  }

let topology t = t.topo

(* Charge [count] accesses worth [bytes] to the destination node and
   every link on the route.  The local/remote split is the caller's,
   so that [record_row] can keep those two sums in registers. *)
let[@inline] charge t ~src ~dst ~count ~bytes =
  t.node_accesses.(dst) <- t.node_accesses.(dst) +. count;
  t.node_bytes.(dst) <- t.node_bytes.(dst) +. bytes;
  t.epoch_node_bytes.(dst) <- t.epoch_node_bytes.(dst) +. bytes;
  let route = t.routes.((src * t.nodes) + dst) in
  for i = 0 to Array.length route - 1 do
    let l = route.(i) in
    t.link_bytes.(l) <- t.link_bytes.(l) +. bytes;
    t.epoch_link_bytes.(l) <- t.epoch_link_bytes.(l) +. bytes
  done

let record_accesses t ~src ~dst ~count ~bytes_per_access =
  charge t ~src ~dst ~count ~bytes:(count *. bytes_per_access);
  if src = dst then t.split.local <- t.split.local +. count
  else t.split.remote <- t.split.remote +. count

(* One row, destinations ascending: every accumulator sees exactly the
   additions, in exactly the order, of the per-entry loop
   [for dst ... if row.(pos + dst) > 0.0 then record_accesses ...]. *)
let record_row t ~src row ~pos ~bytes_per_access =
  let local = ref t.split.local in
  let remote = ref t.split.remote in
  for dst = 0 to t.nodes - 1 do
    let count = row.(pos + dst) in
    if count > 0.0 then begin
      charge t ~src ~dst ~count ~bytes:(count *. bytes_per_access);
      if src = dst then local := !local +. count else remote := !remote +. count
    end
  done;
  t.split.local <- !local;
  t.split.remote <- !remote

let node_accesses t = Array.copy t.node_accesses
let node_bytes t = Array.copy t.node_bytes
let local_accesses t = t.split.local
let remote_accesses t = t.split.remote
let link_bytes t = Array.copy t.link_bytes

let imbalance t = Sim.Stats.relative_stddev t.node_accesses

let end_epoch t ~duration =
  assert (duration > 0.0);
  let controller_cap = Topology.controller_gib_per_s t.topo *. gib *. duration in
  for n = 0 to t.nodes - 1 do
    let u = Float.min 1.0 (t.epoch_node_bytes.(n) /. controller_cap) in
    t.last_controller_util.(n) <- u;
    t.sum_controller_util.(n) <- t.sum_controller_util.(n) +. u;
    t.epoch_node_bytes.(n) <- 0.0
  done;
  let links = Topology.links t.topo in
  let max_util = ref 0.0 in
  for i = 0 to Array.length t.epoch_link_bytes - 1 do
    let cap = links.(i).Topology.gib_per_s *. gib *. duration in
    let u = Float.min 1.0 (t.epoch_link_bytes.(i) /. cap) in
    t.last_link_util.(i) <- u;
    if u > !max_util then max_util := u;
    t.epoch_link_bytes.(i) <- 0.0
  done;
  t.sum_max_link_util <- t.sum_max_link_util +. !max_util;
  t.epochs <- t.epochs + 1

let epoch_count t = t.epochs
let last_controller_utilisation t = Array.copy t.last_controller_util
let last_link_utilisation t = Array.copy t.last_link_util

let max_route_saturation t ~src ~dst =
  let sat = ref t.last_controller_util.(dst) in
  let route = t.routes.((src * t.nodes) + dst) in
  for i = 0 to Array.length route - 1 do
    let u = t.last_link_util.(route.(i)) in
    if u > !sat then sat := u
  done;
  !sat

let raw_link_reading ~utilisation =
  let u = Float.max 0.0 (Float.min 1.0 utilisation) in
  0.5 +. (0.3 *. u)

let normalise_link_reading ~raw =
  let r = Float.max 0.5 (Float.min 0.8 raw) in
  (r -. 0.5) /. 0.3

let interconnect_load t =
  if t.epochs = 0 then 0.0
  else begin
    let avg = t.sum_max_link_util /. float_of_int t.epochs in
    normalise_link_reading ~raw:(raw_link_reading ~utilisation:avg)
  end

let avg_controller_utilisation t =
  if t.epochs = 0 then Array.map (fun _ -> 0.0) t.sum_controller_util
  else Array.map (fun s -> s /. float_of_int t.epochs) t.sum_controller_util

let reset t =
  Array.fill t.node_accesses 0 (Array.length t.node_accesses) 0.0;
  Array.fill t.node_bytes 0 (Array.length t.node_bytes) 0.0;
  Array.fill t.link_bytes 0 (Array.length t.link_bytes) 0.0;
  t.split.local <- 0.0;
  t.split.remote <- 0.0;
  Array.fill t.epoch_node_bytes 0 (Array.length t.epoch_node_bytes) 0.0;
  Array.fill t.epoch_link_bytes 0 (Array.length t.epoch_link_bytes) 0.0;
  t.epochs <- 0;
  Array.fill t.last_controller_util 0 (Array.length t.last_controller_util) 0.0;
  Array.fill t.last_link_util 0 (Array.length t.last_link_util) 0.0;
  Array.fill t.sum_controller_util 0 (Array.length t.sum_controller_util) 0.0;
  t.sum_max_link_util <- 0.0
