(* srs-2r4b: the paper's SRS deck ([Deck.default] physics: pump and
   seed antennas, absorbing walls, reflectivity probe) with ny = 8 and
   16 particles per cell, run by [Deck.build_over] as 2 ranks x 4 blocks
   with a 1.5 y-skew and the particle-count rebalancer on.  Each block is
   2 cells thick in y, so every particle is in the boundary shell: the
   interior and block-kernel push is bypassed, while the deferred scalar
   path, [Multiblock], the ports and the mailbox are exercised.

   The untraced repetition times each rank's [Multiblock.step] calls;
   the traced one also reads the spans and counters the program records
   ([Trace], [Metrics] with the comm wait observer). *)

module H = Harness
module Deck = Vpic_lpi.Deck
module Multiblock = Vpic.Multiblock
module Simulation = Vpic.Simulation
module Comm = Vpic_parallel.Comm
module Perf = Vpic_util.Perf
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics

let ranks = 2
let blocks = 4

(* Four Marder-clean intervals (50) and eight sort intervals (25). *)
let steps = 200

let config seed =
  { Deck.default with ny = 8; ppc = 16; y_skew = 1.5; rng_seed = seed }

let build comm seed =
  Deck.build_over ~comm ~rebalance_threshold:1.1 ~cost_model:`Particles ~blocks
    (config seed)

(* What one rank body returns; printing and checking happen on the main
   domain after [Comm.run] joins. *)
type rank_obs = {
  step_s : float array;
  words : float;
  perf : Perf.counters;
  energy : Simulation.energies;
  particles : int;
  reflectivity : float;
  migrations : int;
  ship_bytes : float;
  comm_bytes : float;
  imbalance : float;
  park_s : float;
  movers : float;
}

exception Rank_error of string

(* Build the deck and step it [steps] times.  A failure is re-raised
   with the rank's own backtrace as text, since the origin frame does not
   survive the domain join. *)
let rank_body ~seed ~traced comm =
  Printexc.record_backtrace true;
  try
    let rank = Comm.rank comm in
    if traced then begin
      Trace.enable ~capacity:(1 lsl 18) ~rank ();
      Metrics.install_comm_wait_observer ()
    end;
    let bs = build comm seed in
    let mb = bs.Deck.mb in
    let step_s = Array.make steps 0. in
    let words = ref 0. in
    let p0 = Perf.create () in
    Perf.merge_into ~dst:p0 (Multiblock.perf mb);
    for i = 0 to steps - 1 do
      let w0 = Gc.minor_words () in
      let t = H.now () in
      Multiblock.step mb;
      step_s.(i) <- H.now () -. t;
      words := !words +. (Gc.minor_words () -. w0);
      Deck.sample_over bs
    done;
    let perf = Perf.create () in
    let p1 = Multiblock.perf mb in
    perf.Perf.flops <- p1.Perf.flops -. p0.Perf.flops;
    perf.Perf.bytes_moved <- p1.Perf.bytes_moved -. p0.Perf.bytes_moved;
    perf.Perf.particle_steps <-
      p1.Perf.particle_steps -. p0.Perf.particle_steps;
    let energy = Multiblock.energies mb in
    let particles = Multiblock.total_particles mb in
    let m = Metrics.default () in
    { step_s;
      words = !words;
      perf;
      energy;
      particles;
      reflectivity = Vpic_lpi.Reflectivity.reflectivity bs.Deck.refl;
      migrations = Multiblock.migrations mb;
      ship_bytes = Multiblock.ship_bytes mb;
      comm_bytes = Multiblock.comm_bytes mb;
      imbalance = Multiblock.last_imbalance mb;
      park_s = Metrics.value m "comm.park_s";
      movers = Metrics.value m "migrate.movers" }
  with e ->
    let bt = Printexc.get_backtrace () in
    raise
      (Rank_error
         (Printf.sprintf "rank %d: %s\n%s" (Comm.rank comm)
            (Printexc.to_string e) bt))

let world ~seed ~traced =
  if traced then begin
    Trace.reset ();
    Metrics.enable ()
  end;
  Fun.protect
    ~finally:(fun () ->
      if traced then begin
        Trace.disable ();
        Metrics.disable ()
      end)
    (fun () -> Comm.run ~ranks (rank_body ~seed ~traced))

type rep = {
  obs : rank_obs array;
  step_world_s : float list;  (** per step, the slowest rank *)
  wall : float;
  entries : Trace.entry list;
  dropped : int;
}

let sum_ranks (obs : rank_obs array) f =
  Array.fold_left (fun a o -> a +. f o) 0. obs

let repetition r ~seed ~traced =
  let t0 = H.now () in
  let obs = world ~seed ~traced in
  let wall = H.now () -. t0 in
  let label = if traced then "traced" else "untraced" in
  let step_world_s =
    List.init steps (fun i ->
        Array.fold_left (fun a o -> Float.max a o.step_s.(i)) 0. obs)
  in
  let refl = sum_ranks obs (fun o -> o.reflectivity) /. float_of_int ranks in
  H.check r
    (Printf.sprintf "%s: reflectivity %g finite in [0,1]" label refl)
    (Float.is_finite refl && refl >= 0. && refl <= 1.);
  let migrations = sum_ranks obs (fun o -> float_of_int o.migrations) in
  H.check r
    (Printf.sprintf "%s: %g block relocations >= 1" label migrations)
    (migrations >= 1.);
  let en = obs.(0).energy in
  Reference.check r ~workload:"srs-2r4b" ~seed ~label en.Simulation.total;
  let counts =
    [ ("energy_total", en.Simulation.total);
      ("energy_field_e", en.Simulation.field_e);
      ("particles", float_of_int obs.(0).particles);
      ("flops", sum_ranks obs (fun o -> o.perf.Perf.flops));
      ("bytes", sum_ranks obs (fun o -> o.perf.Perf.bytes_moved));
      ("exchange_bytes", sum_ranks obs (fun o -> o.comm_bytes));
      ("rebalance_migrations", migrations);
      ("rebalance_bytes", sum_ranks obs (fun o -> o.ship_bytes)) ]
  in
  H.record_counts r label
    (if traced then counts @ [ ("movers", sum_ranks obs (fun o -> o.movers)) ]
     else counts);
  (* ranks that park on the comm layer allocate a few hundred words
     more or less, depending on the interleaving *)
  if not traced then
    H.record_counts ~rel_tol:1e-5 r label
      [ ("alloc_words", sum_ranks obs (fun o -> o.words)) ];
  let entries = if traced then Trace.entries () else [] in
  let dropped = if traced then Trace.dropped_entries () else 0 in
  { obs; step_world_s; wall; entries; dropped }

let run r ~seed ~seconds ~traced =
  (* A set-up sample is one collective build on fresh rank domains.  All
     are taken up front: each world that ends leaves the next one's first
     steps slower (about 60 slow steps after 15 builds), and the untimed
     warm-up repetition absorbs that once. *)
  let builds =
    H.setup_samples ~n:15 (fun () ->
        Comm.run ~ranks (fun comm -> build comm seed))
  in
  let untraced = ref [] and traced_reps = ref [] in
  H.repeat ~seconds (fun i ->
      let tr = traced && i mod 2 = 1 in
      match
        H.attempt r "srs-2r4b repetition" (fun () ->
            repetition r ~seed ~traced:tr)
      with
      | Some _ when i < 0 -> ()
      | Some rep ->
          if tr then traced_reps := rep :: !traced_reps
          else untraced := rep :: !untraced
      | None -> ());
  let reps = List.rev !untraced in
  let step_s = List.concat_map (fun rep -> rep.step_world_s) reps in
  let tot f = H.sum (List.map (fun rep -> sum_ranks rep.obs f) reps) in
  let particle_steps = tot (fun o -> o.perf.Perf.particle_steps) in
  if not traced then begin
    H.metric r "particle_steps_per_s" (H.ratio particle_steps (H.sum step_s));
    H.metric r "step_ms_p50" (1e3 *. H.median step_s);
    H.metric r "step_ms_p90" (1e3 *. H.quantile 0.9 step_s);
    H.metric r "setup_s" (H.setup_time builds);
    H.metric r "alloc_words_per_particle_step"
      (H.ratio (tot (fun o -> o.words)) particle_steps);
    H.metric r "peak_rss_mb" (H.peak_rss_mb ());
    H.metric r "jobs_per_s"
      (H.ratio (float_of_int (List.length reps))
         (H.sum (List.map (fun rep -> rep.wall) reps)));
    (* no result cache: resubmitting the deck re-runs it *)
    H.metric r "warm_resubmit_ms_p50"
      (1e3 *. H.median (List.map (fun rep -> rep.wall) (H.after_first reps)))
  end
  else begin
    let treps = List.rev !traced_reps in
    let ttot f = H.sum (List.map (fun rep -> sum_ranks rep.obs f) treps) in
    let tsteps = float_of_int (steps * List.length treps) in
    let tps = ttot (fun o -> o.perf.Perf.particle_steps) in
    let entries = List.concat_map (fun rep -> rep.entries) treps in
    let tbl = H.span_totals entries in
    let m = H.metric r in
    H.span_layer_metrics r tbl ~rank_steps:(tsteps *. float_of_int ranks)
      ~boundary_steps:tps;
    m "exchange.bytes_per_step" (H.ratio (ttot (fun o -> o.comm_bytes)) tsteps);
    m "migrate.movers_per_step" (H.ratio (ttot (fun o -> o.movers)) tsteps);
    m "comm.wait_frac"
      (H.ratio (ttot (fun o -> o.park_s))
         (ttot (fun o -> Array.fold_left ( +. ) 0. o.step_s)));
    let per_rep f = H.ratio (ttot f) (float_of_int (List.length treps)) in
    m "rebalance.migrations" (per_rep (fun o -> float_of_int o.migrations));
    m "rebalance.bytes" (per_rep (fun o -> o.ship_bytes));
    m "push.imbalance"
      (match List.rev treps with rep :: _ -> rep.obs.(0).imbalance | [] -> 0.);
    m "deck.build_s" (H.setup_time builds);
    m "flops_per_particle_step" (H.ratio (ttot (fun o -> o.perf.Perf.flops)) tps);
    m "bytes_per_particle_step"
      (H.ratio (ttot (fun o -> o.perf.Perf.bytes_moved)) tps);
    m "trace.overhead_frac"
      (H.ratio
         (H.median (List.concat_map (fun rep -> rep.step_world_s) treps))
         (H.median step_s)
      -. 1.);
    m "trace.dropped_entries"
      (float_of_int (List.fold_left (fun a rep -> a + rep.dropped) 0 treps))
  end
