(* Shared machinery of the repo benchmark: the run clock, order
   statistics, correctness and determinism bookkeeping, span self-time
   accounting, provenance, and the result line.

   A workload reports through one [run] record: the checks it made
   (attempted / failed), the deterministic counts of every repetition
   (compared across repetitions of the same seed), and its metrics. *)

let now = Vpic_util.Perf.now

(* ------------------------------------------------------ order statistics *)

(* [Stats.percentile] over a list.  The list is empty only when every
   repetition of a run raised; the metric then reads NaN, which the
   result's finiteness check counts as a failure. *)
let quantile q = function
  | [] -> nan
  | samples -> Vpic_util.Stats.percentile (100. *. q) (Array.of_list samples)

let median samples = quantile 0.5 samples

(* Every sample but the first (the first alone if there is one). *)
let after_first = function _ :: (_ :: _ as rest) -> rest | l -> l
let sum = List.fold_left ( +. ) 0.

(* [ratio a b] with an empty denominator reading 0: a layer that did no
   work on this workload reports 0, never NaN. *)
let ratio a b = if b = 0. then 0. else a /. b

(* ----------------------------------------------------------------- run *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  reference : (string, float) Hashtbl.t;
      (** first value seen of every deterministic count *)
  mutable metrics : (string * float) list;  (** reversed *)
}

let create () =
  { attempted = 0; failed = 0; reference = Hashtbl.create 16; metrics = [] }

let check r name ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" name
  end

(* Run one operation of the workload; an exception counts as a failed
   attempt (its backtrace goes to stderr) and yields [None]. *)
let attempt r name f =
  match f () with
  | v -> Some v
  | exception e ->
      let bt = Printexc.get_backtrace () in
      r.attempted <- r.attempted + 1;
      r.failed <- r.failed + 1;
      Printf.eprintf "perfbench: %s raised %s\n%s%!" name (Printexc.to_string e)
        bt;
      None

(* Deterministic counts must repeat across repetitions of one seed: the
   first value seen of a count is its reference, and every later value
   is one check — bit for bit, or within [rel_tol] for a count known to
   carry a timing-dependent part. *)
let record_counts ?(rel_tol = 0.) r label counts =
  Printf.printf "counts %s: %s\n" label
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) counts));
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt r.reference k with
      | None -> Hashtbl.replace r.reference k v
      | Some v0 ->
          check r
            (Printf.sprintf "%s: %s = %.17g differs from first value %.17g"
               label k v v0)
            (if rel_tol = 0. then
               Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v0)
             else Float.abs (v -. v0) <= rel_tol *. Float.abs v0))
    counts

let metric r name value = r.metrics <- (name, value) :: r.metrics

(* Run [rep (-1)], an untimed warm-up repetition whose observations
   the workload drops (checks and counts still apply), then repeat
   [rep i] for i = 0, 1, ... while the measured window has room for
   another repetition as long as the last one, and at least twice, so
   the determinism cross-check always has a second repetition to
   compare.  The warm-up absorbs the slow start of the first
   repetition (tens of slow steps on srs-2r4b).  A full major
   collection after each repetition frees its decks (their
   particle stores live outside the OCaml heap until finalised), so the
   peak RSS is one repetition's and not an accident of GC timing. *)
let repeat ~seconds rep =
  rep (-1);
  Gc.full_major ();
  let t0 = now () in
  let rec go i last =
    let elapsed = now () -. t0 in
    if i < 2 || elapsed +. last <= seconds then begin
      let t = now () in
      rep i;
      let last = now () -. t in
      Gc.full_major ();
      go (i + 1) last
    end
  in
  go 0 0.

(* Wall seconds of [build ()], [n] times; the builds are dropped and
   collected.  The single-domain workloads take a few samples before
   each repetition, so that a run's samples span it. *)
let setup_samples ~n build =
  List.init n (fun _ ->
      let t0 = now () in
      ignore (Sys.opaque_identity (build ()));
      let dt = now () -. t0 in
      Gc.full_major ();
      dt)

(* The set-up time of a run: the lower quartile of its samples.  Other
   tenants of the host slow these small, allocation-bound builds by up
   to 1.8x, in phases that last seconds, so the median of a run's
   samples reads the host's phase more than the build.  The lower
   quartile holds while a quarter of the samples fall in a quiet phase,
   and unlike the minimum it ignores the lone fast sample that
   srs-2r4b's collective builds show now and then. *)
let setup_time samples = quantile 0.25 samples

(* ------------------------------------------------- host and provenance *)

(* Whole file, read to end-of-file (files under /proc report length 0);
   "" when it cannot be opened. *)
let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let b = Buffer.create 4096 in
          (try
             while true do
               Buffer.add_channel b ic 1
             done
           with End_of_file -> ());
          Buffer.contents b)
  | exception Sys_error _ -> ""

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let status = read_file "/proc/self/status" in
  let kb =
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %f kB" Fun.id)
      (String.split_on_char '\n' status)
  in
  match kb with Some kb -> kb /. 1024. | None -> nan

let cores () = Domain.recommended_domain_count ()

(* The commit, read from .git without starting a process; "none" in a
   plain checkout, where [src_md5] still pins the sources.  A branch
   ref is looked up as a loose file, then in packed-refs; a .git file
   (a linked worktree) points at the git directory, whose commondir
   holds the shared refs. *)
let git_rev () =
  let git_dir =
    if Sys.file_exists ".git" && not (Sys.is_directory ".git") then
      match Scanf.sscanf_opt (read_file ".git") "gitdir: %s" Fun.id with
      | Some d -> d
      | None -> ".git"
    else ".git"
  in
  let common_dir =
    match String.trim (read_file (Filename.concat git_dir "commondir")) with
    | "" -> git_dir
    | d when Filename.is_relative d -> Filename.concat git_dir d
    | d -> d
  in
  let packed name =
    String.split_on_char '\n' (read_file (Filename.concat common_dir "packed-refs"))
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ rev; n ] when n = name -> Some rev
           | _ -> None)
  in
  let lookup name =
    List.find_map
      (fun dir ->
        match String.trim (read_file (Filename.concat dir name)) with
        | "" -> None
        | rev -> Some rev)
      [ git_dir; common_dir ]
    |> function
    | Some rev -> rev
    | None -> Option.value ~default:"unknown" (packed name)
  in
  match String.trim (read_file (Filename.concat git_dir "HEAD")) with
  | "" -> "none"
  | head -> (
      match Scanf.sscanf_opt head "ref: %s" Fun.id with
      | Some name -> lookup name
      | None -> head)

(* MD5 over every library and benchmark source, in path order. *)
let src_md5 () =
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then walk p
               else if
                 Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
               then [ p ]
               else [])
    | exception Sys_error _ -> []
  in
  let files = walk "lib" @ walk "perfbench" in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> p ^ "\000" ^ read_file p) files)))

module Json = Vpic_util.Json

let print_provenance ~workload ~seed ~seconds ~trace ~domains =
  let oversubscribed = domains > cores () in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ( "provenance",
              Json.Obj
                [ ("git", Json.Str (git_rev ()));
                  ("src_md5", Json.Str (src_md5 ()));
                  ("nproc", Json.Num (float_of_int (cores ())));
                  ("ocaml", Json.Str Sys.ocaml_version);
                  ("flambda", Json.Bool Build_info.flambda);
                  ("workload", Json.Str workload);
                  ("seed", Json.Num (float_of_int seed));
                  ("seconds", Json.Num seconds);
                  ("trace", Json.Bool trace);
                  ("domains", Json.Num (float_of_int domains));
                  ("oversubscribed", Json.Bool oversubscribed) ] ) ]));
  if oversubscribed then
    Printf.printf
      "WARNING: %s uses %d domains on %d cores: wall times are timeshared\n"
      workload domains (cores ())

(* --------------------------------------------------------- span totals *)

module Trace = Vpic_telemetry.Trace

type span_total = { mutable total_s : float; mutable self_s : float; mutable n : int }

(* Per-name inclusive and self seconds over the recorded entries of
   every buffer.  Self time is a span's duration minus the durations of
   its direct children; within one buffer spans nest properly, so the
   parent of an entry is the innermost open span that contains it. *)
let span_totals (entries : Trace.entry list) =
  let tbl = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
        let s = { total_s = 0.; self_s = 0.; n = 0 } in
        Hashtbl.replace tbl name s;
        s
  in
  let by_buffer = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.entry) ->
      let k = (e.rank, e.worker) in
      Hashtbl.replace by_buffer k
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_buffer k)))
    entries;
  Hashtbl.iter
    (fun _ es ->
      let es =
        List.sort
          (fun (a : Trace.entry) (b : Trace.entry) ->
            compare (a.t0, a.depth) (b.t0, b.depth))
          es
      in
      let stack = ref [] in
      List.iter
        (fun (e : Trace.entry) ->
          let rec pop = function
            | (p : Trace.entry) :: rest when p.depth >= e.depth || p.t1 < e.t1 ->
                pop rest
            | s -> s
          in
          stack := pop !stack;
          let d = e.t1 -. e.t0 in
          let s = get e.name in
          s.total_s <- s.total_s +. d;
          s.self_s <- s.self_s +. d;
          s.n <- s.n + 1;
          (match !stack with
          | p :: _ -> (get p.name).self_s <- (get p.name).self_s -. d
          | [] -> ());
          stack := e :: !stack)
        es)
    by_buffer;
  tbl

let span tbl name =
  Option.value ~default:{ total_s = 0.; self_s = 0.; n = 0 }
    (Hashtbl.find_opt tbl name)

(* Durations of every span of one name, seconds. *)
let span_durations (entries : Trace.entry list) name =
  List.filter_map
    (fun (e : Trace.entry) ->
      if e.name = name then Some (e.t1 -. e.t0) else None)
    entries

(* The per-layer metrics both span-reading workloads derive the same
   way.  [rank_steps] counts steps over every recording domain, so a
   per-step figure is one domain's share of a step; [boundary_steps]
   counts the particle-steps of the boundary-shell push.  On these
   decks every particle lies in the boundary shell, so the interior
   push advances none and its per-particle figures read 0. *)
let span_layer_metrics r tbl ~rank_steps ~boundary_steps =
  let ms name = 1e3 *. (span tbl name).total_s in
  let per_step names = ratio (sum (List.map ms names)) rank_steps in
  let per_call name = ratio (ms name) (float_of_int (span tbl name).n) in
  metric r "push.interior.ns_per_particle" 0.;
  metric r "push.interior.alloc_words_per_particle" 0.;
  metric r "push.boundary.ns_per_particle"
    (ratio (1e6 *. ms "push.boundary") boundary_steps);
  metric r "sort.ms_per_call" (per_call "sort");
  metric r "interp.load.ms_per_step" (per_step [ "interp.load" ]);
  metric r "accum.unload.ms_per_step" (per_step [ "accum.unload" ]);
  metric r "field.ms_per_step" (per_step [ "field" ]);
  metric r "laser.ms_per_step" (per_step [ "laser" ]);
  metric r "clean.ms_per_call" (per_call "clean");
  metric r "exchange.fill.ms_per_step"
    (per_step [ "exchange.fill"; "exchange.fill_begin"; "exchange.fill_finish" ]);
  metric r "exchange.fold.ms_per_step" (per_step [ "exchange.fold" ]);
  metric r "migrate.ms_per_step" (per_step [ "migrate" ]);
  metric r "step.self_ms" (ratio (1e3 *. (span tbl "step").self_s) rank_steps)

(* ----------------------------------------------------------- the result *)
(* Print every metric of [names] (name, unit) by name with its unit,
   then the result line: one JSON object, the last line of standard
   output.  A metric the workload did not report is a failed check when
   [required], and reads 0 otherwise (a layer the workload does not
   run). *)
let print_result r ~names ~required =
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name r.metrics with
        | Some v ->
            check r (Printf.sprintf "metric %s is finite (%g)" name v)
              (Float.is_finite v);
            (name, v, unit)
        | None ->
            if required then check r ("metric " ^ name ^ " reported") false;
            (name, 0., unit))
      names
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-40s %.6g %s\n" name v unit)
    metrics;
  Printf.printf "failed_frac %.6g (%d of %d)\n"
    (ratio (float_of_int r.failed) (float_of_int r.attempted))
    r.failed r.attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
            ("attempted", Json.Num (float_of_int (max 1 r.attempted)));
            ("failed", Json.Num (float_of_int r.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     ( name,
                       Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]
                     ))
                   metrics) ) ]))
