(* campaign-grid: a 16-job a0 x seed grid of quasi-1D SRS decks (nx 128,
   16 particles per cell, 200 steps) through [Campaign.Service] with 2
   workers and [default_params] (checkpoint every 25 steps, sentinel
   every 50).  Each repetition runs one cold pass into a fresh campaign
   directory — checkpoint generations, store appends and queue
   transitions — then resubmits the same grid [warm_passes] times, which
   only reads: content-hash cache hits and 0 simulation steps.

   The laser decks trip the sentinel's "energy drift exceeds 0.1"
   warning on every job; the sentinel only logs it (stderr), and it is
   not a failure here. *)

module H = Harness
module Deck = Vpic_lpi.Deck
module Simulation = Vpic.Simulation
module Service = Vpic_campaign.Service
module Spec = Vpic_campaign.Spec
module Job = Vpic_campaign.Job
module Queue = Vpic_campaign.Queue
module Store = Vpic_campaign.Store
module Trace = Vpic_telemetry.Trace

let steps = 200
let warm_passes = 5
let a0s = [ 0.02; 0.04; 0.06; 0.08 ]
let params = Service.default_params

let spec seed =
  Spec.make ~a0s
    ~seeds:(List.init 4 (fun i -> (4 * seed) + i + 1))
    ~steps:[ steps ]
    ~base:{ Deck.default with nx = 128; ppc = 16 }
    ()

let work_root = ".perfbench-work"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let dir = Filename.concat work_root name in
  rm_rf dir;
  dir

(* Each grid deck's loaded particle count. *)
let build_decks jobs =
  List.map
    (fun (j : Job.t) ->
      Simulation.total_particles (Deck.build j.Job.config).Deck.sim)
    jobs

type rep = {
  builds : float list;  (** set-up samples taken before the repetition *)
  cold_s : float;
  cold_words : float;
  job_step_s : float list;  (** per job: its wall over its steps *)
  warm_s : float list;
  warm_hits : int;
  warm_jobs : int;
  entries : Trace.entry list;
  dropped : int;
}

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let repetition r ~seed ~traced ~index ~jobs =
  let builds = H.setup_samples ~n:3 (fun () -> build_decks jobs) in
  let njobs = List.length jobs in
  let label = if traced then "traced" else "untraced" in
  let dir = fresh_dir (Printf.sprintf "campaign-%d-%d" (Unix.getpid ()) index) in
  if traced then begin
    Trace.reset ();
    Trace.enable ~capacity:(1 lsl 18) ~rank:0 ()
  end;
  Fun.protect
    ~finally:(fun () ->
      if traced then Trace.reset ();
      rm_rf dir)
    (fun () ->
      let q = Queue.create ~root:dir in
      let store = Store.open_ ~root:dir in
      let w0 = minor_words () in
      let t0 = H.now () in
      let sub = Service.submit q store (spec seed) in
      let cold = Service.work ~params q store in
      let cold_s = H.now () -. t0 in
      let cold_words = minor_words () -. w0 in
      H.check r
        (Printf.sprintf
           "%s cold: %d submitted, %d completed, %d failed, %d exhausted, %d steps"
           label sub.Service.submitted cold.Service.completed
           cold.Service.failed cold.Service.exhausted cold.Service.sim_steps)
        (sub.Service.submitted = njobs
        && cold.Service.completed = njobs
        && cold.Service.failed = 0
        && cold.Service.exhausted = 0
        && cold.Service.sim_steps = njobs * steps);
      (* completion order varies with the lanes; sums go in hash order *)
      let rows =
        List.sort (fun (a : Store.row) b -> compare a.Store.hash b.Store.hash)
          (Store.rows store)
      in
      List.iter
        (fun (row : Store.row) ->
          H.check r
            (Printf.sprintf "%s: job %s reflectivity %g finite in [0,1]" label
               row.Store.hash row.Store.r_measured)
            (Float.is_finite row.Store.r_measured
            && row.Store.r_measured >= 0.
            && row.Store.r_measured <= 1.))
        rows;
      let rsum f = H.sum (List.map f rows) in
      H.record_counts r label
        [ ("rows", float_of_int (List.length rows));
          ("r_measured_sum", rsum (fun row -> row.Store.r_measured));
          ("r_peak_sum", rsum (fun row -> row.Store.r_peak));
          ("hot_fraction_sum", rsum (fun row -> row.Store.hot_fraction)) ];
      let warm =
        List.init warm_passes (fun _ ->
            let t = H.now () in
            let sub = Service.submit q store (spec seed) in
            let st = Service.work ~params q store in
            let dt = H.now () -. t in
            H.check r
              (Printf.sprintf
                 "%s warm: %d reopened, %d cache hits, %d sim steps" label
                 sub.Service.reopened st.Service.cache_hits
                 st.Service.sim_steps)
              (sub.Service.reopened = njobs
              && st.Service.cache_hits = njobs
              && st.Service.sim_steps = 0
              && st.Service.failed = 0);
            (dt, st.Service.cache_hits))
      in
      let entries = if traced then Trace.entries () else [] in
      let dropped = if traced then Trace.dropped_entries () else 0 in
      { builds;
        cold_s;
        cold_words;
        job_step_s =
          List.map (fun row -> row.Store.elapsed_s /. float_of_int steps) rows;
        warm_s = List.map fst warm;
        warm_hits = List.fold_left (fun a (_, h) -> a + h) 0 warm;
        warm_jobs = njobs * warm_passes;
        entries;
        dropped })

(* Bytes of one checkpoint generation of a grid deck, and its analytic
   flop/byte ledger per particle-step over one Marder interval: both
   computed from a deck run here, outside the service. *)
let deck_ledger seed =
  let job = List.hd (Spec.expand (spec seed)) in
  let sim = (Deck.build job.Job.config).Deck.sim in
  let dir = fresh_dir (Printf.sprintf "ledger-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Vpic.Checkpoint.save_generation sim ~dir ~gen:1 ~keep:1;
      let rec bytes path =
        if Sys.is_directory path then
          Array.fold_left
            (fun a f -> a +. bytes (Filename.concat path f))
            0. (Sys.readdir path)
        else float_of_int (Unix.stat path).Unix.st_size
      in
      let ckpt_bytes = bytes dir in
      Simulation.run sim ~steps:50 ();
      let p = sim.Simulation.perf in
      ( ckpt_bytes,
        H.ratio p.Vpic_util.Perf.flops p.Vpic_util.Perf.particle_steps,
        H.ratio p.Vpic_util.Perf.bytes_moved p.Vpic_util.Perf.particle_steps ))

let run r ~seed ~seconds ~traced =
  let jobs = Spec.expand (spec seed) in
  let particle_steps =
    float_of_int steps *. H.sum (List.map float_of_int (build_decks jobs))
  in
  let untraced = ref [] and traced_reps = ref [] in
  H.repeat ~seconds (fun i ->
      let tr = traced && i mod 2 = 1 in
      match
        H.attempt r "campaign-grid repetition" (fun () ->
            repetition r ~seed ~traced:tr ~index:i ~jobs)
      with
      | Some _ when i < 0 -> ()
      | Some rep ->
          if tr then traced_reps := rep :: !traced_reps
          else untraced := rep :: !untraced
      | None -> ());
  (try Unix.rmdir work_root with Unix.Unix_error _ -> ());
  let reps = List.rev !untraced in
  let builds = List.concat_map (fun rep -> rep.builds) (reps @ !traced_reps) in
  let job_step_s = List.concat_map (fun rep -> rep.job_step_s) reps in
  let tot f = H.sum (List.map f reps) in
  let njobs = float_of_int (List.length jobs) in
  if not traced then begin
    H.metric r "particle_steps_per_s"
      (H.ratio (particle_steps *. float_of_int (List.length reps))
         (tot (fun rep -> rep.cold_s)));
    H.metric r "step_ms_p50" (1e3 *. H.median job_step_s);
    H.metric r "step_ms_p90" (1e3 *. H.quantile 0.9 job_step_s);
    H.metric r "setup_s" (H.setup_time builds);
    H.metric r "alloc_words_per_particle_step"
      (H.ratio (tot (fun rep -> rep.cold_words))
         (particle_steps *. float_of_int (List.length reps)));
    H.metric r "peak_rss_mb" (H.peak_rss_mb ());
    H.metric r "jobs_per_s"
      (H.ratio
         (njobs *. float_of_int (List.length reps))
         (tot (fun rep -> rep.cold_s)));
    H.metric r "warm_resubmit_ms_p50"
      (1e3 *. H.median (List.concat_map (fun rep -> rep.warm_s) reps))
  end
  else begin
    let treps = List.rev !traced_reps in
    let entries = List.concat_map (fun rep -> rep.entries) treps in
    let tbl = H.span_totals entries in
    let jobs_sim = H.span_durations entries "campaign.job" in
    let nt = float_of_int (List.length treps) in
    let tsteps = njobs *. float_of_int steps *. nt in
    let ttot f = H.sum (List.map f treps) in
    let m = H.metric r in
    H.span_layer_metrics r tbl ~rank_steps:tsteps
      ~boundary_steps:(particle_steps *. nt);
    let ckpt_bytes, flops, bytes = deck_ledger seed in
    let per_call name =
      let s = H.span tbl name in
      H.ratio (1e3 *. s.H.total_s) (float_of_int s.H.n)
    in
    m "checkpoint.ms_per_gen" (per_call "checkpoint");
    m "checkpoint.bytes_per_gen" ckpt_bytes;
    m "sentinel.ms_per_check" (per_call "sentinel");
    m "deck.build_s" (H.setup_time builds /. njobs);
    m "campaign.job.sim_s_p50" (H.median jobs_sim);
    (* lane time outside the job spans: queue, lease, store and the
       wait for the last job *)
    m "campaign.service.self_s_per_job"
      (H.ratio
         ((float_of_int params.Service.workers *. ttot (fun rep -> rep.cold_s))
         -. H.sum jobs_sim)
         (njobs *. nt));
    m "campaign.cache_hit_ratio"
      (H.ratio
         (float_of_int (List.fold_left (fun a rep -> a + rep.warm_hits) 0 treps))
         (float_of_int (List.fold_left (fun a rep -> a + rep.warm_jobs) 0 treps)));
    m "campaign.cache_hit.ms_p50"
      (1e3
      *. H.median (List.concat_map (fun rep -> rep.warm_s) treps)
      /. njobs);
    m "flops_per_particle_step" flops;
    m "bytes_per_particle_step" bytes;
    m "trace.overhead_frac"
      (H.ratio (H.median (List.concat_map (fun rep -> rep.job_step_s) treps))
         (H.median job_step_s)
      -. 1.);
    m "trace.dropped_entries"
      (float_of_int (List.fold_left (fun a rep -> a + rep.dropped) 0 treps))
  end
