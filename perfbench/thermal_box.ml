(* thermal-box: the ROADMAP step-bench deck — a 24^3 periodic
   Maxwellian electron box, 27 particles per cell — stepped serially
   with one rank, one block, no team and the default push backend.  The
   push dominates and the local coupler bypasses the comm layer, so this
   is the kernel workload and the plain single-threaded baseline.

   The untraced repetition times each [Simulation.step] call.  The
   traced repetition drives the same step through the phase
   decomposition [simulation.mli] documents ([Simulation.phase_*] plus
   the coupler closures), timing every call from here; its final energy
   must equal the untraced one bit for bit. *)

module H = Harness
module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Push = Vpic_particle.Push
module Perf = Vpic_util.Perf

let n = 24
let ppc = 27

(* Two sort intervals (25) and one Marder-clean interval (50): the
   periodic phases land in proportion. *)
let steps = 50

let build seed =
  let l = 12. in
  let dx = l /. float_of_int n in
  let dt = Grid.courant_dt ~dx ~dy:dx ~dz:dx () in
  let grid = Grid.make ~nx:n ~ny:n ~nz:n ~lx:l ~ly:l ~lz:l ~dt () in
  let sim = Simulation.make ~grid ~coupler:(Coupler.local Bc.periodic) () in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore
    (Vpic_particle.Loader.maxwellian (Vpic_util.Rng.of_int seed) e ~ppc
       ~uth:0.08 ());
  sim

(* ---------------------------------------------------- traced step *)

(* The phases the traced repetition times, in step order of first
   appearance.  [interp.load] includes the current-mesh clear that
   [phase_clear_and_load] does with the interior load. *)
let phases =
  [| "exchange.fill"; "interp.load"; "push.interior"; "push.boundary";
     "laser"; "migrate"; "accum.unload"; "exchange.fold"; "field"; "clean";
     "sort" |]

let slot name =
  let rec find i = if phases.(i) = name then i else find (i + 1) in
  find 0

let s_fill = slot "exchange.fill"
let s_load = slot "interp.load"
let s_interior = slot "push.interior"
let s_boundary = slot "push.boundary"
let s_laser = slot "laser"
let s_migrate = slot "migrate"
let s_unload = slot "accum.unload"
let s_fold = slot "exchange.fold"
let s_field = slot "field"
let s_clean = slot "clean"
let s_sort = slot "sort"

type phase_acc = {
  seconds : float array;
  words : float array;
  calls : int array;
  mutable interior_particles : int;
  mutable boundary_particles : int;
  mutable movers : int;
  mutable block_lanes : int;
  mutable block_cleanup : int;
}

let new_acc () =
  let k = Array.length phases in
  { seconds = Array.make k 0.;
    words = Array.make k 0.;
    calls = Array.make k 0;
    interior_particles = 0;
    boundary_particles = 0;
    movers = 0;
    block_lanes = 0;
    block_cleanup = 0 }

let time acc i f =
  let w0 = Gc.minor_words () in
  let t0 = H.now () in
  let v = f () in
  let t1 = H.now () in
  acc.seconds.(i) <- acc.seconds.(i) +. (t1 -. t0);
  acc.words.(i) <- acc.words.(i) +. (Gc.minor_words () -. w0);
  acc.calls.(i) <- acc.calls.(i) + 1;
  v

let advanced (sim : Simulation.t) = sim.push_stats.Push.advanced

(* [Simulation.step], phase by phase (no current filter, no fault
   probes armed, no monitor attached — the deck has none). *)
let traced_step acc (sim : Simulation.t) =
  let c = sim.coupler in
  let f = sim.fields in
  let accum = Option.map snd sim.interp_accum in
  time acc s_fill (fun () -> c.Coupler.fill_em_begin f);
  let ss = time acc s_load (fun () -> Simulation.phase_clear_and_load sim) in
  let a0 = advanced sim in
  time acc s_interior (fun () -> Simulation.phase_push_interior sim ss);
  let a1 = advanced sim in
  time acc s_fill (fun () -> c.Coupler.fill_em_finish f);
  time acc s_load (fun () -> Simulation.phase_load_boundary sim);
  time acc s_boundary (fun () -> Simulation.phase_push_boundary sim ss);
  let a2 = advanced sim in
  acc.interior_particles <- acc.interior_particles + (a1 - a0);
  acc.boundary_particles <- acc.boundary_particles + (a2 - a1);
  time acc s_laser (fun () -> Simulation.phase_lasers sim);
  List.iter
    (fun (_, (sc : Simulation.push_scratch)) ->
      acc.movers <- acc.movers + Push.Movers.count sc.movers)
    ss;
  time acc s_migrate (fun () ->
      List.iter
        (fun (s, (sc : Simulation.push_scratch)) ->
          c.Coupler.migrate ?accum s f sc.movers)
        ss);
  time acc s_unload (fun () -> Simulation.phase_unload_accum sim);
  time acc s_fold (fun () -> c.Coupler.fold_currents f);
  time acc s_field (fun () -> Simulation.phase_advance_b sim ~frac:0.5);
  time acc s_fill (fun () -> c.Coupler.fill_em f);
  time acc s_field (fun () -> Simulation.phase_advance_e sim);
  if Simulation.interval_due sim sim.clean_div_interval then
    time acc s_clean (fun () ->
        Simulation.deposit_rho sim;
        ignore
          (Vpic_field.Marder.clean ~perf:sim.perf ~pool:sim.pool
             ~passes:sim.marder_passes
             ~hooks:(Coupler.marder_hooks c f)
             f));
  time acc s_fill (fun () -> c.Coupler.fill_em f);
  time acc s_field (fun () ->
      Simulation.phase_advance_b sim ~frac:0.5;
      Simulation.phase_absorb sim);
  if Simulation.interval_due sim sim.sort_interval then
    time acc s_sort (fun () -> Simulation.phase_sort sim);
  sim.nstep <- sim.nstep + 1

(* ---------------------------------------------------- repetitions *)

type obs = {
  builds : float list;  (** set-up samples taken before the repetition *)
  step_s : float list;
  words : float;  (** minor words inside the step calls (untraced only) *)
  particle_steps : float;
  flops : float;
  bytes : float;
  wall : float;   (** build + steps + checks *)
}

(* One repetition: set-up samples, then build, check, step [steps]
   times, check. *)
let repetition r ~seed ~traced ~acc =
  let builds = H.setup_samples ~n:3 (fun () -> build seed) in
  let t0 = H.now () in
  let sim = build seed in
  let gauss0 = Simulation.gauss_residual sim in
  let p0 = Perf.create () in
  Perf.merge_into ~dst:p0 sim.perf;
  let samples = ref [] and words = ref 0. in
  for _ = 1 to steps do
    let w0 = Gc.minor_words () in
    let t = H.now () in
    if traced then traced_step acc sim else Simulation.step sim;
    let dt = H.now () -. t in
    words := !words +. (Gc.minor_words () -. w0);
    samples := dt :: !samples
  done;
  let d field = field sim.perf -. field p0 in
  let particles = Simulation.total_particles sim in
  let en = Simulation.energies sim in
  let gauss = Simulation.gauss_residual sim in
  let label = if traced then "traced" else "untraced" in
  if traced then begin
    acc.block_lanes <- acc.block_lanes + sim.push_stats.Push.block_lanes;
    acc.block_cleanup <- acc.block_cleanup + sim.push_stats.Push.block_cleanup
  end;
  H.check r
    (Printf.sprintf "%s: particle count %d = %d" label particles
       (n * n * n * ppc))
    (particles = n * n * n * ppc);
  (* Charge-conserving deposition keeps div E - rho where the load left
     it; only the Marder clean moves it, and only downwards. *)
  H.check r
    (Printf.sprintf "%s: Gauss residual %.3e within 1%% of initial %.3e" label
       gauss gauss0)
    (gauss <= 1.01 *. gauss0);
  let flops = d (fun p -> p.Perf.flops) in
  let bytes = d (fun p -> p.Perf.bytes_moved) in
  let counts =
    [ ("energy_total", en.Simulation.total);
      ("energy_field_e", en.Simulation.field_e);
      ("flops", flops);
      ("bytes", bytes) ]
  in
  H.record_counts r label
    (if traced then counts else counts @ [ ("alloc_words", !words) ]);
  Reference.check r ~workload:"thermal-box" ~seed ~label en.Simulation.total;
  { builds;
    step_s = List.rev !samples;
    words = !words;
    particle_steps = d (fun p -> p.Perf.particle_steps);
    flops;
    bytes;
    wall = H.now () -. t0 }

let run r ~seed ~seconds ~traced =
  let untraced = ref [] and traced_obs = ref [] in
  let acc = new_acc () in
  H.repeat ~seconds (fun i ->
      (* the traced run alternates untraced and traced repetitions, so
         the tracing overhead is measured within one process *)
      let tr = traced && i mod 2 = 1 in
      match
        H.attempt r "thermal-box repetition" (fun () ->
            repetition r ~seed ~traced:tr ~acc)
      with
      | Some _ when i < 0 -> ()
      | Some o ->
          if tr then traced_obs := o :: !traced_obs
          else untraced := o :: !untraced
      | None -> ());
  let obs = List.rev !untraced in
  let builds = List.concat_map (fun o -> o.builds) (obs @ !traced_obs) in
  let step_s = List.concat_map (fun o -> o.step_s) obs in
  let tot f = H.sum (List.map f obs) in
  if not traced then begin
    H.metric r "particle_steps_per_s"
      (H.ratio (tot (fun o -> o.particle_steps)) (H.sum step_s));
    H.metric r "step_ms_p50" (1e3 *. H.median step_s);
    H.metric r "step_ms_p90" (1e3 *. H.quantile 0.9 step_s);
    H.metric r "setup_s" (H.setup_time builds);
    H.metric r "alloc_words_per_particle_step"
      (H.ratio (tot (fun o -> o.words)) (tot (fun o -> o.particle_steps)));
    H.metric r "peak_rss_mb" (H.peak_rss_mb ());
    H.metric r "jobs_per_s"
      (H.ratio (float_of_int (List.length obs)) (tot (fun o -> o.wall)));
    (* no result cache: resubmitting the deck re-runs it *)
    H.metric r "warm_resubmit_ms_p50"
      (1e3 *. H.median (List.map (fun o -> o.wall) (H.after_first obs)))
  end
  else begin
    let tobs = List.rev !traced_obs in
    let tsteps = float_of_int (steps * List.length tobs) in
    let sec i = acc.seconds.(i) and calls i = float_of_int acc.calls.(i) in
    let per_step i = H.ratio (1e3 *. sec i) tsteps in
    let traced_step_s = List.concat_map (fun o -> o.step_s) tobs in
    let voxels = float_of_int (n * n * n) in
    let ps = H.sum (List.map (fun o -> o.particle_steps) tobs) in
    let ph = H.sum (Array.to_list acc.seconds) in
    let m = H.metric r in
    m "push.interior.ns_per_particle"
      (H.ratio (1e9 *. sec s_interior) (float_of_int acc.interior_particles));
    m "push.interior.alloc_words_per_particle"
      (H.ratio acc.words.(s_interior) (float_of_int acc.interior_particles));
    m "push.boundary.ns_per_particle"
      (H.ratio (1e9 *. sec s_boundary) (float_of_int acc.boundary_particles));
    m "push.block_cleanup_frac"
      (H.ratio (float_of_int acc.block_cleanup) (float_of_int acc.block_lanes));
    m "sort.ms_per_call" (H.ratio (1e3 *. sec s_sort) (calls s_sort));
    m "interp.load.ms_per_step" (per_step s_load);
    m "accum.unload.ms_per_step" (per_step s_unload);
    m "accum.unload.alloc_words_per_voxel"
      (H.ratio acc.words.(s_unload) (voxels *. tsteps));
    m "field.ms_per_step" (per_step s_field);
    m "laser.ms_per_step" (per_step s_laser);
    m "clean.ms_per_call" (H.ratio (1e3 *. sec s_clean) (calls s_clean));
    m "exchange.fill.ms_per_step" (per_step s_fill);
    m "exchange.fold.ms_per_step" (per_step s_fold);
    m "migrate.ms_per_step" (per_step s_migrate);
    m "migrate.movers_per_step" (H.ratio (float_of_int acc.movers) tsteps);
    m "push.imbalance" 1.;
    m "step.self_ms" (H.ratio (1e3 *. (H.sum traced_step_s -. ph)) tsteps);
    m "deck.build_s" (H.setup_time builds);
    m "flops_per_particle_step"
      (H.ratio (H.sum (List.map (fun o -> o.flops) tobs)) ps);
    m "bytes_per_particle_step"
      (H.ratio (H.sum (List.map (fun o -> o.bytes) tobs)) ps);
    m "trace.overhead_frac"
      (H.ratio (H.median traced_step_s) (H.median step_s) -. 1.)
  end
