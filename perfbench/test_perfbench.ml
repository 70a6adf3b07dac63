(* Cell generation is a pure function of the workload seed, and every
   generated cell is a valid configuration; the result digest ignores
   exactly the fast-forward accounting. *)

let seeds = List.init 16 Fun.id

let identity (c : Cells.cell) = (c.Cells.label, c.Cells.seed, c.Cells.plan)

let same_seed_same_cells () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          Alcotest.(check (list (triple string int string)))
            (Cells.workload_name w) (List.map identity (Cells.generate w ~seed))
            (List.map identity (Cells.generate w ~seed)))
        seeds)
    Cells.workloads

let seeds_differ () =
  List.iter
    (fun w ->
      List.iter2
        (fun (a : Cells.cell) (b : Cells.cell) ->
          Alcotest.(check string) "same cell" a.Cells.label b.Cells.label;
          if a.Cells.seed = b.Cells.seed then
            Alcotest.failf "%s %s: seeds 1 and 2 give engine seed %d" (Cells.workload_name w)
              a.Cells.label a.Cells.seed)
        (Cells.generate w ~seed:1) (Cells.generate w ~seed:2))
    Cells.workloads

let shape () =
  List.iter
    (fun w ->
      let cells = Cells.generate w ~seed:1 in
      Alcotest.(check int) "one cell per app" 29 (List.length cells);
      let labels = List.sort_uniq compare (List.map (fun c -> c.Cells.label) cells) in
      Alcotest.(check int) "labels unique" 29 (List.length labels);
      let tags = List.sort_uniq compare (List.map (fun c -> c.Cells.variant.Cells.tag) cells) in
      Alcotest.(check int) "both variants" 2 (List.length tags);
      List.iter
        (fun (c : Cells.cell) ->
          Alcotest.(check bool)
            (c.Cells.label ^ " carries a plan exactly in churn")
            (w = Cells.Churn) (c.Cells.plan <> ""))
        cells)
    Cells.workloads

let configs_valid () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          List.iter
            (fun (c : Cells.cell) ->
              match Cells.config c with
              | cfg -> (
                  match Faults.Plan.validate cfg.Engine.Config.faults with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "%s: plan %S: %s" c.Cells.label c.Cells.plan e)
              | exception Invalid_argument e ->
                  Alcotest.failf "%s seed %d %s: %s" (Cells.workload_name w) seed c.Cells.label e)
            (Cells.generate w ~seed))
        seeds)
    Cells.workloads

let digest_ignores_replay () =
  let app = Option.get (Workloads.Catalogue.find "swaptions") in
  let run fast_forward =
    Engine.Runner.run
      (Engine.Config.make ~fast_forward ~inner_jobs:1 ~mode:Engine.Config.Xen_plus
         [ Engine.Config.vm ~threads:8 ~policy:Policies.Spec.round_4k app ])
  in
  let on = run true and off = run false in
  Alcotest.(check bool) "fast-forward replayed epochs" true
    (on.Engine.Result.replayed_epochs > off.Engine.Result.replayed_epochs);
  Alcotest.(check string) "same digest" (Fingerprint.of_result off) (Fingerprint.of_result on);
  let nudged =
    { on with
      Engine.Result.vms =
        List.map
          (fun (vm : Engine.Result.vm_result) ->
            { vm with Engine.Result.completion = Float.succ vm.Engine.Result.completion })
          on.Engine.Result.vms }
  in
  Alcotest.(check bool) "one ulp changes the digest" false
    (Fingerprint.of_result on = Fingerprint.of_result nudged)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench.cells",
        [
          Alcotest.test_case "same seed, same cells" `Quick same_seed_same_cells;
          Alcotest.test_case "seeds give different engine seeds" `Quick seeds_differ;
          Alcotest.test_case "29 cells, both variants, plans only in churn" `Quick shape;
          Alcotest.test_case "every config validates" `Quick configs_valid;
        ] );
      ( "perfbench.digest",
        [ Alcotest.test_case "ignores replayed epochs only" `Quick digest_ignores_replay ] );
    ]
