(* The repo benchmark: one workload per run, measured end to end
   (--trace 0) or per layer (--trace 1).

     perfbench/run.sh --workload thermal-box|srs-2r4b|campaign-grid \
       --seed N --seconds S --trace 0|1

   Prints provenance, the deterministic counts of every repetition, each
   metric with its unit, and as the last line the JSON result
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

module Json = Vpic_util.Json

(* The (name, unit) list of one metric class in BENCHMARK.json, which
   is the one place the metrics are named. *)
let metric_names cls =
  let doc = Json.parse_exn (Harness.read_file "BENCHMARK.json") in
  List.map
    (fun m ->
      let field k =
        Option.get (Option.bind (Json.member k m) Json.to_string_opt)
      in
      (field "name", field "unit"))
    (Json.to_list (Option.get (Json.member cls doc)))

(* name, domains used, run *)
let workloads =
  [ ("thermal-box", 1, Thermal_box.run);
    ("srs-2r4b", Srs_2r4b.ranks, Srs_2r4b.run);
    ( "campaign-grid",
      Campaign_grid.params.Vpic_campaign.Service.workers,
      Campaign_grid.run ) ]

let usage =
  "main.exe --workload thermal-box|srs-2r4b|campaign-grid --seed N \
   --seconds S --trace 0|1"

let () =
  Printexc.record_backtrace true;
  let workload = ref "" and seed = ref (-1) in
  let seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
  | Some (name, domains, run)
    when !seed >= 0 && !seconds >= 0. && (!trace = 0 || !trace = 1) ->
      let traced = !trace = 1 in
      let names = metric_names (if traced then "per_layer" else "end_to_end") in
      Harness.print_provenance ~workload:name ~seed:!seed ~seconds:!seconds
        ~trace:traced ~domains;
      let r = Harness.create () in
      ignore
        (Harness.attempt r name (fun () ->
             run r ~seed:!seed ~seconds:!seconds ~traced));
      Harness.print_result r ~names ~required:(not traced)
  | _ ->
      prerr_endline usage;
      exit 2
