(** The measuring half of the repository benchmark.  run.py validates
    the command line, builds this program, passes it a fixed argument
    vector and adds units from BENCHMARK.json:

    perfbench WORKLOAD SEED SECONDS TRACE(0|1) STATE RPCC
    perfbench fill-native STATE      (native-warm's binary-cache fill)

    Prints a run record (inputs digest, host calibration, sample counts,
    failures) and, as its last line, the metrics by name.  A malformed
    argument vector exits 2; an error that prevents measuring exits 1
    without metrics. *)

open Common

let usage () =
  prerr_endline "usage: perfbench WORKLOAD SEED SECONDS TRACE STATE RPCC (run it through perfbench/run.py)";
  exit 2

let parse = function
  | [| _; workload; seed; seconds; trace; state; rpcc |] -> (
    match (int_of_string_opt seed, float_of_string_opt seconds, trace) with
    | Some seed, Some seconds, ("0" | "1") ->
      { workload; seed; seconds; trace = trace = "1"; state; rpcc }
    | _ -> usage ())
  | _ -> usage ()

(** Every untraced request's latency, each round's included, so a slow
    round moves the percentiles as much as the requests it slowed. *)
let job_ms (o : outcome) = List.concat (Array.to_list o.lat_ms)

(** The end-to-end metrics of an untraced run.  Throughput is jobs over
    the timed seconds of every untraced round, slow rounds included. *)
let end_to_end (o : outcome) =
  let lat = sorted (job_ms o) in
  let q p = Json.Float (quantile p lat) in
  let ops, loads, stores = o.dyn in
  [
    ("setup_s", Json.Float o.setup_s);
    ("jobs_per_s", Json.Float (float o.jobs /. sum o.round_s));
    ("job_ms_p50", q 0.5);
    ("job_ms_p90", q 0.9);
    ("job_ms_p99", q 0.99);
    ("dyn_ops", Json.Int ops);
    ("dyn_loads", Json.Int loads);
    ("dyn_stores", Json.Int stores);
    ("code_instrs", Json.Int o.code_instrs);
    ("peak_rss_mb", Json.Float o.peak_rss_mb);
  ]

let main () =
  let ctx = parse Sys.argv in
  at_exit Serve_mixed.kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p ctx.state;
  let acc = acc () in
  let origin = now () in
  let o =
    match ctx.workload with
    | "paper-grid" -> Grid.paper ctx acc
    | "native-warm" -> Grid.native ctx acc
    | "serve-mixed" -> Serve_mixed.run ctx acc
    | _ -> usage ()
  in
  Serve_mixed.kill_all ();
  (* calibrate after measuring, so its buffers stay out of the peak RSS *)
  let host = Host.record () in
  let tag = Printf.sprintf "%s-seed%d-trace%d" ctx.workload ctx.seed (Bool.to_int ctx.trace) in
  let spans =
    if not ctx.trace then Json.Null
    else begin
      let dir = Filename.concat ctx.state "traces" in
      mkdir_p dir;
      let path = Filename.concat dir (tag ^ ".jsonl") in
      Trace.write path ~origin;
      Json.Str path
    end
  in
  let failed_frac = float acc.failed /. float (max 1 acc.attempted) in
  let n = Array.length o.lat_ms and samples = List.length (job_ms o) in
  let record =
    Json.Obj
      ([
         ("perfbench", Json.Str "run-record/1");
         ("workload", Json.Str ctx.workload);
         ("seed", Json.Int ctx.seed);
         ("trace", Json.Bool ctx.trace);
         ("inputs_digest", Json.Str o.digest);
         ("host", host);
         ("jobs", Json.Int o.jobs);
         ("round_s", Json.List (List.map (fun s -> Json.Float s) o.round_s));
         ( "latency_samples",
           Json.Obj
             [
               ("distinct_jobs", Json.Int n);
               ("rounds", Json.Int (List.length o.round_s));
               ("requests", Json.Int samples);
               ("beyond_p90", Json.Int (samples / 10));
               ("beyond_p99", Json.Int (samples / 100));
             ] );
         ("run_ms", Option.fold ~none:Json.Null ~some:(fun v -> Json.Float v) o.run_ms);
         ("failed_frac", Json.Float failed_frac);
         ("failures", Json.List (List.rev_map (fun s -> Json.Str s) acc.failures));
         ("spans", spans);
       ]
      @ o.notes)
  in
  let results = Filename.concat ctx.state "results" in
  mkdir_p results;
  Json.to_file (Filename.concat results (tag ^ ".json")) record;
  print_endline (Json.to_string ~indent:false record);
  let metrics =
    if ctx.trace then
      List.map (fun (k, v) -> (k, Json.Float v)) (o.layers @ [ ("failed_frac", failed_frac) ])
    else end_to_end o
  in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("correct", Json.Bool (acc.failed = 0));
            ("attempted", Json.Int acc.attempted);
            ("failed", Json.Int acc.failed);
            ("metrics", Json.Obj metrics);
          ]))

let () =
  try
    match Sys.argv with
    | [| _; "fill-native"; state |] -> Grid.fill_native state
    | _ -> main ()
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
