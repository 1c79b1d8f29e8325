(* Final total energies recorded for the stepped workloads, per seed,
   at the commit that defined this benchmark.  A repetition's final
   energy must lie within [tolerance] (relative) of its seed's record:
   loose enough for a change of floating-point summation order, tight
   enough to catch a change of physics.  A seed without a record is
   checked for a finite, positive energy only (every repetition of it is
   still compared bit for bit with the first). *)

let tolerance = 1e-6

let recorded : (string * int * float) list =
  [
    ("thermal-box", 0, 16.548468826712579);
    ("thermal-box", 1, 16.491004127151538);
    ("thermal-box", 2, 16.518786902984306);
    ("thermal-box", 3, 16.557739006325782);
    ("thermal-box", 4, 16.541806136245249);
    ("thermal-box", 5, 16.504964807743896);
    ("thermal-box", 6, 16.524144323953557);
    ("thermal-box", 7, 16.500388441448063);
    ("thermal-box", 8, 16.529323852024262);
    ("thermal-box", 9, 16.548038111166996);
    ("thermal-box", 10, 16.514680929583339);
    ("thermal-box", 11, 16.540133972771322);
    ("thermal-box", 12, 16.501924006489897);
    ("thermal-box", 13, 16.553013768988642);
    ("thermal-box", 14, 16.50068253084897);
    ("thermal-box", 15, 16.517095009520194);
    ("thermal-box", 16, 16.5250129222194);
    ("thermal-box", 17, 16.526439445627538);
    ("thermal-box", 18, 16.521475889814752);
    ("thermal-box", 19, 16.475633287085891);
    ("thermal-box", 20, 16.551512135510503);
    ("thermal-box", 21, 16.544844287794277);
    ("thermal-box", 22, 16.510400056394214);
    ("thermal-box", 23, 16.500348489630994);
    ("thermal-box", 24, 16.505710664367186);
    ("thermal-box", 25, 16.521699751575845);
    ("thermal-box", 26, 16.508201505273473);
    ("thermal-box", 27, 16.500071782482795);
    ("thermal-box", 28, 16.540223330367773);
    ("thermal-box", 29, 16.515967494694113);
    ("thermal-box", 30, 16.559430122438386);
    ("thermal-box", 31, 16.538569560444344);
    ("thermal-box", 32, 16.536196852689201);
    ("thermal-box", 33, 16.505638801383427);
    ("thermal-box", 34, 16.517173141077219);
    ("thermal-box", 35, 16.536732119868105);
    ("thermal-box", 36, 16.53445304407694);
    ("thermal-box", 37, 16.502777287622056);
    ("thermal-box", 38, 16.525582624014032);
    ("thermal-box", 39, 16.52750992424404);
    ("thermal-box", 40, 16.529863600158436);
    ("thermal-box", 41, 16.494246737826103);
    ("thermal-box", 42, 16.546872505972342);
    ("thermal-box", 43, 16.551587927409575);
    ("thermal-box", 44, 16.517940825683972);
    ("thermal-box", 45, 16.513395493034949);
    ("thermal-box", 46, 16.515940301881667);
    ("thermal-box", 47, 16.502205603954934);
    ("thermal-box", 48, 16.54325066017234);
    ("thermal-box", 49, 16.539462734675102);
    ("thermal-box", 50, 16.471409360276098);
    ("thermal-box", 51, 16.517836017586241);
    ("thermal-box", 52, 16.54079035128537);
    ("thermal-box", 53, 16.529304122485527);
    ("thermal-box", 54, 16.505843975410311);
    ("thermal-box", 55, 16.537332300186719);
    ("thermal-box", 56, 16.501529191658268);
    ("thermal-box", 57, 16.537541279253528);
    ("thermal-box", 58, 16.526546525417046);
    ("thermal-box", 59, 16.514979003324772);
    ("thermal-box", 60, 16.50904165883739);
    ("thermal-box", 61, 16.548802454423321);
    ("thermal-box", 62, 16.521301347487565);
    ("thermal-box", 63, 16.479290015621981);
    ("srs-2r4b", 0, 1.2535537153204821);
    ("srs-2r4b", 1, 1.2494924287213725);
    ("srs-2r4b", 2, 1.2539632393873976);
    ("srs-2r4b", 3, 1.2509893155825789);
    ("srs-2r4b", 4, 1.2516622388858201);
    ("srs-2r4b", 5, 1.2496558436939782);
    ("srs-2r4b", 6, 1.250644541353362);
    ("srs-2r4b", 7, 1.2470917474881962);
    ("srs-2r4b", 8, 1.2525187633367614);
    ("srs-2r4b", 9, 1.2492975150824952);
    ("srs-2r4b", 10, 1.2520411956943989);
    ("srs-2r4b", 11, 1.2526231879771996);
    ("srs-2r4b", 12, 1.2545932899568824);
    ("srs-2r4b", 13, 1.2514665961836993);
    ("srs-2r4b", 14, 1.2514304263731191);
    ("srs-2r4b", 15, 1.2501904979546579);
    ("srs-2r4b", 16, 1.2506257855309042);
    ("srs-2r4b", 17, 1.2553897947195702);
    ("srs-2r4b", 18, 1.2519903649182695);
    ("srs-2r4b", 19, 1.2529247280162166);
    ("srs-2r4b", 20, 1.2489653021690845);
    ("srs-2r4b", 21, 1.2518122391885391);
    ("srs-2r4b", 22, 1.2486439195618872);
    ("srs-2r4b", 23, 1.2499957315584966);
    ("srs-2r4b", 24, 1.2529345011934667);
    ("srs-2r4b", 25, 1.2508527846730515);
    ("srs-2r4b", 26, 1.252868919093447);
    ("srs-2r4b", 27, 1.252039545603175);
    ("srs-2r4b", 28, 1.2475129774029456);
    ("srs-2r4b", 29, 1.2469786506788816);
    ("srs-2r4b", 30, 1.2509486316442466);
    ("srs-2r4b", 31, 1.2527483685485454);
    ("srs-2r4b", 32, 1.2502343995495226);
    ("srs-2r4b", 33, 1.2501738412494046);
    ("srs-2r4b", 34, 1.2463260724434289);
    ("srs-2r4b", 35, 1.2521177639650616);
    ("srs-2r4b", 36, 1.2528513613802681);
    ("srs-2r4b", 37, 1.2525898579232682);
    ("srs-2r4b", 38, 1.2509752132740708);
    ("srs-2r4b", 39, 1.249883125670626);
    ("srs-2r4b", 40, 1.2527747335914339);
    ("srs-2r4b", 41, 1.2505686334260728);
    ("srs-2r4b", 42, 1.2502876721864935);
    ("srs-2r4b", 43, 1.251317153539);
    ("srs-2r4b", 44, 1.2496531897610743);
    ("srs-2r4b", 45, 1.2532209332508977);
    ("srs-2r4b", 46, 1.2505414900207195);
    ("srs-2r4b", 47, 1.2498397119086966);
    ("srs-2r4b", 48, 1.253077249664432);
    ("srs-2r4b", 49, 1.2497346914214593);
    ("srs-2r4b", 50, 1.2540274091492654);
    ("srs-2r4b", 51, 1.2541836805630622);
    ("srs-2r4b", 52, 1.2520931454668063);
    ("srs-2r4b", 53, 1.2526649862790902);
    ("srs-2r4b", 54, 1.2518021006894762);
    ("srs-2r4b", 55, 1.2521334624060969);
    ("srs-2r4b", 56, 1.2501282193758076);
    ("srs-2r4b", 57, 1.2524399221513121);
    ("srs-2r4b", 58, 1.2533559320144754);
    ("srs-2r4b", 59, 1.2539566673568201);
    ("srs-2r4b", 60, 1.2539928259062856);
    ("srs-2r4b", 61, 1.2539227817969267);
    ("srs-2r4b", 62, 1.251786746051196);
    ("srs-2r4b", 63, 1.2539277889304359) ]

let check r ~workload ~seed ~label energy =
  match List.find_opt (fun (w, s, _) -> w = workload && s = seed) recorded with
  | Some (_, _, e_ref) ->
      Harness.check r
        (Printf.sprintf "%s: final energy %.17g within %g of recorded %.17g"
           label energy tolerance e_ref)
        (Float.abs (energy -. e_ref) <= tolerance *. Float.abs e_ref)
  | None ->
      Harness.check r
        (Printf.sprintf "%s: final energy %.17g finite and positive" label energy)
        (Float.is_finite energy && energy > 0.)
