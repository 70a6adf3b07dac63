(* Benchmark cell sets: a pure function of (workload, seed).

   Every workload is the 29 catalogue applications, each under one of
   the workload's two variants: they alternate in catalogue order, so
   each variant runs on every other application.  (All 58 pairs make a
   pass too long to repeat the four times a run needs.)  The workload
   seed picks each cell's engine seed and, in [churn], its fault plan;
   nothing else about a cell depends on it. *)

type workload = Static | Carrefour | Churn

let workloads = [ Static; Carrefour; Churn ]

let workload_name = function
  | Static -> "static"
  | Carrefour -> "carrefour"
  | Churn -> "churn"

let workload_of_string s = List.find_opt (fun w -> workload_name w = s) workloads

type variant = {
  tag : string;
  mode : Engine.Config.mode;
  policy : Policies.Spec.t;
  mitosis : bool;  (** superpages + radix walk pricing + replicated page tables *)
}

let variant ?(mitosis = false) tag mode policy = { tag; mode; policy; mitosis }

let variants = function
  | Static ->
      [
        variant "linux/round-4k" Engine.Config.Linux Policies.Spec.round_4k;
        variant "xen+/round-1g" Engine.Config.Xen_plus Policies.Spec.round_1g;
      ]
  | Carrefour ->
      [
        variant "xen+/ft+carrefour" Engine.Config.Xen_plus Policies.Spec.first_touch_carrefour;
        variant "xen+/round-4k+carrefour" Engine.Config.Xen_plus
          Policies.Spec.round_4k_carrefour;
      ]
  | Churn ->
      [
        variant "xen/first-touch" Engine.Config.Xen Policies.Spec.first_touch;
        variant ~mitosis:true "xen+/first-touch+sp+ptw+rep" Engine.Config.Xen_plus
          Policies.Spec.first_touch;
      ]

type cell = {
  label : string;  (** ["app|variant"], unique within a workload *)
  app : Workloads.App.t;
  variant : variant;
  seed : int;  (** engine seed *)
  plan : string;  (** fault plan in {!Faults.Plan.of_string} syntax; [""] = none *)
}

(* FNV-1a over the cell label folded into the workload seed, the same
   scheme the experiment grids use for their per-cell streams. *)
let engine_seed ~seed label =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF) label;
  (seed * 0x9E3779B1 lxor !h) land 0x3FFFFFFF

(* The chaos/RAS plan families a churn cell draws from.  Families are
   dealt out round-robin over the cell list, so every seed carries the
   same mix of fault kinds on the same cells; the seed picks each
   cell's rates and failure window. *)
let plan_families =
  [|
    (fun rng -> Printf.sprintf "alloc=%.2f" (Sim.Rng.pick rng [| 0.1; 0.15; 0.2 |]));
    (fun rng -> Printf.sprintf "migrate=%.1f" (Sim.Rng.pick rng [| 0.5; 1.0 |]));
    (fun rng ->
      Printf.sprintf "batch-loss=%.1f,op-drop=%.2f"
        (Sim.Rng.pick rng [| 0.3; 0.5 |])
        (Sim.Rng.pick rng [| 0.02; 0.05 |]));
    (fun rng ->
      Printf.sprintf "ecc-ce=%.1f,ecc-ue=%.2f"
        (Sim.Rng.pick rng [| 0.5; 0.9 |])
        (Sim.Rng.pick rng [| 0.02; 0.05 |]));
    (fun rng ->
      let from = Sim.Rng.pick rng [| 50; 100 |] in
      Printf.sprintf "node_fail=1.0@%d-%d" from (from + 100));
  |]

let generate workload ~seed =
  let rng = Sim.Rng.create ~seed in
  let vs = Array.of_list (variants workload) in
  List.mapi (fun i app -> (app, vs.(i mod Array.length vs))) Workloads.Catalogue.all
  |> List.mapi (fun i (app, v) ->
         let label = app.Workloads.App.name ^ "|" ^ v.tag in
         let plan =
           match workload with
           | Static | Carrefour -> ""
           | Churn -> plan_families.(i mod Array.length plan_families) rng
         in
         { label; app; variant = v;
           seed = engine_seed ~seed (workload_name workload ^ "|" ^ label); plan })

(* One domain: no kernel sharding, so the numbers measure the engine and
   not the sharing of a domain pool. *)
let config ?max_epochs cell =
  let v = cell.variant in
  let vm =
    Engine.Config.vm ~superpages:v.mitosis ~pt_walk:v.mitosis ~replicate_pt:v.mitosis
      ~policy:v.policy cell.app
  in
  Engine.Config.make ~seed:cell.seed ?max_epochs ~inner_jobs:1
    ~faults:(Faults.Plan.of_string_exn cell.plan)
    ~mode:v.mode [ vm ]
