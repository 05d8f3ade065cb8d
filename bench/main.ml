(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md §4 for the experiment index).

    {v
      dune exec bench/main.exe            -- all count tables (Figures 4-7,
                                             §3.3, register pressure)
      dune exec bench/main.exe -- --timings   -- Bechamel wall-clock benches,
                                                 one Test.make per table
      dune exec bench/main.exe -- --json      -- write BENCH_counts.json (the
                                                 paper's counts, nothing else)
                                                 and BENCH_timings.json
                                                 (everything about the run)
      dune exec bench/main.exe -- --json --via-daemon SOCK
                                              -- the grid through a running
                                                 rpcc serve daemon (cached)
      dune exec bench/main.exe -- --json --via-fleet N [--plant-crash]
                                              -- the grid through a
                                                 supervised N-shard fleet;
                                                 --plant-crash SIGKILLs a
                                                 shard mid-campaign
      dune exec bench/main.exe -- --json --native [--cc-flags "-O2"]
                                              -- every cell executed through
                                                 the compiled-C backend's
                                                 degradation ladder (native →
                                                 recompile-once → interp),
                                                 locally or, with
                                                 --via-daemon/--via-fleet, on
                                                 each shard
      dune exec bench/main.exe -- --json --native --plant-cc-failure
                                              -- fault drill: a planted broken
                                                 compiler fails every native
                                                 attempt; the campaign must
                                                 complete on the interpreter
                                                 rung
    v}

    BENCH_counts.json is byte-identical across every one of these runs
    (and across [-j] and [--resume]); see {!grid}.  Adding
    [--verify-passes] to a local run reruns the whole experiment under
    translation validation and aborts on the first degraded pass or
    non-converged analysis — the full-suite soundness gate used by CI.

    Counts are exact and deterministic (the interpreter counts executed IL
    operations); wall-clock numbers are only for the compiler itself. *)

open Rp_driver
module I = Rp_exec.Interp

(* [ptr_promoted] is the static §3.3 counter for the cell's compile: how
   many invariant-base groups pointer promotion rewrote.  Zero everywhere
   except the [*/ptr] configs, where the suite's pointer-walk programs
   pin nonzero values as golden. *)
type cell = {
  ops : int;
  loads : int;
  stores : int;
  checksum : int;
  ptr_promoted : int;
}

let cell_of (st : Pipeline.stage_stats) (r : I.result) =
  { ops = r.I.total.I.ops; loads = r.I.total.I.loads;
    stores = r.I.total.I.stores; checksum = r.I.checksum;
    ptr_promoted = st.Pipeline.ptr_promoted }

(* --verify-passes: run every compile of the experiment under translation
   validation; any degraded pass or non-converged analysis aborts the
   bench.  Off by default so baseline counts are produced by the exact
   configurations under study. *)
let verify = ref false

let apply_verify (cfg : Config.t) =
  if !verify then { cfg with Config.verify_passes = true } else cfg

let assert_healthy pname (st : Pipeline.stage_stats) =
  if !verify then begin
    if not st.Pipeline.converged then
      Fmt.failwith "analysis did not converge for %s" pname;
    match st.Pipeline.degraded with
    | [] -> ()
    | (pass, reason) :: _ ->
      Fmt.failwith "pass %s degraded compiling %s: %s" pass pname reason
  end

exception Quarantined of string
(** A benchmark program that exhausts interpreter resource limits, traps,
    or overflows the OCaml stack is quarantined — its table section reports
    the reason and BENCH_counts.json records it as degraded — instead of
    aborting the whole bench run.  [assert_healthy]'s [Failure] is
    deliberately not caught: a degraded pass under [--verify-passes] is the
    CI soundness gate and must stay fatal. *)

type cell_result = Cok of cell | Cquarantined of string

(** Run [f], converting resource/runtime blowups to {!Quarantined} (with
    the program named) while letting verification failures through.
    Under the supervised --json grid a run stopped by [should_stop] still
    reports a resource limit mentioning "external stop", which the grid
    job uses to tell a deadline from a deterministic fuel exhaustion. *)
let quarantining pname f =
  try f () with
  | I.Resource_limit m ->
    raise (Quarantined (Printf.sprintf "%s: resource limit: %s" pname m))
  | Rp_exec.Value.Runtime_error m ->
    raise (Quarantined (Printf.sprintf "%s: runtime error: %s" pname m))
  | Stack_overflow -> raise (Quarantined (pname ^ ": interpreter stack overflow"))

(** Compile and run on the interpreter. *)
let run_raw ?should_stop pname (cfg : Config.t) source =
  let ((_, st, _) as res) =
    quarantining pname (fun () ->
        Pipeline.compile_and_run ?should_stop ~config:(apply_verify cfg) source)
  in
  assert_healthy pname st;
  res

let run_config (p : Rp_suite.Programs.program) (cfg : Config.t) : cell_result =
  match run_raw p.Rp_suite.Programs.name cfg p.Rp_suite.Programs.source with
  | exception Quarantined m -> Cquarantined m
  | (_, st, r) -> Cok (cell_of st r)

(* memoize runs: the same (program, config) pair feeds several tables *)
let cache : (string * string, cell_result) Hashtbl.t = Hashtbl.create 64

let cell_result (p : Rp_suite.Programs.program) (cname : string)
    (cfg : Config.t) : cell_result =
  let key = (p.Rp_suite.Programs.name, cname) in
  match Hashtbl.find_opt cache key with
  | Some c -> c
  | None ->
    let c = run_config p cfg in
    Hashtbl.replace cache key c;
    c

(* -j/--jobs: number of worker domains for the compile×run grid.  Cells
   are computed in parallel but collected and rendered in a fixed order,
   so every table and both JSON documents are byte-identical at any -j. *)
let jobs = ref 1

(* Supervision knobs for the local --json grid (see local_runs):
   --job-timeout gives every cell a wall-clock deadline, --retries bounds
   re-attempts before a cell is quarantined, --journal/--resume make the
   grid crash-resumable, --breaker-threshold trips a per-program circuit
   breaker after that many consecutive failures, and --plant-hang wedges
   one named cell on purpose (the supervision layer's own test fixture). *)
let job_timeout : float option ref = ref None
let job_retries = ref 1
let journal_path : string option ref = ref None
let resume_path : string option ref = ref None
let breaker_threshold = ref 3
let plant_hang : string option ref = ref None (* "program:config" *)
let interrupted = Atomic.make false

(* --native: run the --json grid's cells through the compiled-C backend
   instead of the interpreter — locally through [native_cc], remotely by
   sending [mode: native] jobs that each shard answers through its own
   ladder.  Counts must come out byte-identical (the emitted code carries
   the interpreter's counters); run_ms becomes the native binary's wall
   time.  Compiled binaries are cached in the content-addressed store
   keyed by program × config × cc identity.

   Every cell goes down the backend's degradation ladder: an
   infrastructure failure (cc crash, sandbox trip, garbled trailer,
   corrupt cached binary) recompiles once and then falls back to the
   interpreter, recording the degradation in the timings document
   instead of quarantining. *)
let native = ref false
let native_cc : Rp_backend.Native.cc option ref = ref None

(* --plant-crash: the fleet chaos drill (see grid) *)
let plant_crash = ref false

(* forced at CLI-parse time, before the worker pool spawns: Lazy.force
   from two domains at once is a race (CamlinternalLazy.Undefined) *)
let native_cas =
  lazy (Rp_support.Cas.open_ (Rp_backend.Native.default_cache_dir ()))

(** The native analogue of {!run_raw}: one pipeline compile, then the
    degradation ladder (native → recompile-once → interpreter).  Program
    outcomes (traps, resource limits) still quarantine the cell exactly
    as the interpreter path would — they are faithful answers, identical
    on every rung. *)
let run_native ?should_stop pname (cfg : Config.t) source cc =
  let config = apply_verify cfg in
  let prog, st = Pipeline.compile ~config source in
  assert_healthy pname st;
  let key = Pipeline.cache_key ~config source in
  ( st,
    quarantining pname (fun () ->
        Rp_backend.Native.run_laddered ?deadline:!job_timeout
          ~cache:(Lazy.force native_cas) ~key
          ~interp:(fun () ->
            let t0 = Rp_support.Clock.now () in
            let r = I.run ?should_stop ?deadline:!job_timeout prog in
            (r, (Rp_support.Clock.now () -. t0) *. 1000.))
          ~cc:(Some cc) prog) )

(** Fill the memo cache for [cells] using [!jobs] worker domains.  Workers
    only compute ({!run_config} never prints); results land in the cache
    in input order.  A cell whose computation raised (only possible under
    [--verify-passes], where a degraded pass is fatal) is left uncached:
    the table section that needs it recomputes serially and fails at the
    same point, with the same exception, as a sequential run. *)
let prewarm (cells : (Rp_suite.Programs.program * string * Config.t) list) =
  let cells =
    List.filter
      (fun ((p : Rp_suite.Programs.program), cname, _) ->
        not (Hashtbl.mem cache (p.Rp_suite.Programs.name, cname)))
      cells
  in
  let inputs = Array.of_list cells in
  Rp_support.Pool.run ~jobs:!jobs
    (fun (p, _, cfg) -> run_config p cfg)
    inputs
  |> Array.iteri (fun i r ->
         let ((p : Rp_suite.Programs.program), cname, _) = inputs.(i) in
         match r with
         | Ok c -> Hashtbl.replace cache (p.Rp_suite.Programs.name, cname) c
         | Error _ -> ())

let cell (p : Rp_suite.Programs.program) (cname : string) (cfg : Config.t) :
    cell =
  match cell_result p cname cfg with
  | Cok c -> c
  | Cquarantined m ->
    raise (Quarantined (Printf.sprintf "%s under %s" m cname))

let pct without with_ =
  if without = 0 then 0.
  else 100. *. float_of_int (without - with_) /. float_of_int without

(* ------------------------------------------------------------------ *)
(* Figure 4: program descriptions                                      *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  Fmt.pr "@.== Figure 4: Program Descriptions ==@.";
  Fmt.pr "%-10s  %-6s  %-40s@." "Program" "Lines" "Description";
  List.iter
    (fun (p : Rp_suite.Programs.program) ->
      let lines =
        List.length (String.split_on_char '\n' p.Rp_suite.Programs.source)
      in
      Fmt.pr "%-10s  %-6d  %-40s@." p.Rp_suite.Programs.name lines
        p.Rp_suite.Programs.description)
    Rp_suite.Programs.all;
  Fmt.pr "@.Paper-shape notes:@.";
  List.iter
    (fun (p : Rp_suite.Programs.program) ->
      Fmt.pr "  %-10s %s@." p.Rp_suite.Programs.name p.Rp_suite.Programs.paper_note)
    Rp_suite.Programs.all

(* ------------------------------------------------------------------ *)
(* Figures 5, 6, 7: total operations / stores / loads                  *)
(* ------------------------------------------------------------------ *)

let metric_tables () =
  (* verify semantic preservation across the whole grid first *)
  List.iter
    (fun (p : Rp_suite.Programs.program) ->
      let sums =
        List.map
          (fun (n, cfg) -> (cell p n cfg).checksum)
          Config.paper_grid
      in
      match sums with
      | base :: rest ->
        if not (List.for_all (( = ) base) rest) then
          Fmt.failwith "checksum mismatch across configurations for %s"
            p.Rp_suite.Programs.name
      | [] -> ())
    Rp_suite.Programs.all;
  let table title pick =
    Fmt.pr "@.== %s ==@." title;
    Fmt.pr "%-10s %-8s %12s %12s %12s %10s@." "Program" "analysis" "without"
      "with" "difference" "% removed";
    List.iter
      (fun (p : Rp_suite.Programs.program) ->
        List.iter
          (fun analysis ->
            let without =
              pick (cell p (analysis ^ "/without")
                      (List.assoc (analysis ^ "/without") Config.paper_grid))
            in
            let with_ =
              pick (cell p (analysis ^ "/with")
                      (List.assoc (analysis ^ "/with") Config.paper_grid))
            in
            Fmt.pr "%-10s %-8s %12d %12d %12d %10.2f@." p.Rp_suite.Programs.name
              analysis without with_ (without - with_) (pct without with_))
          [ "modref"; "pointer" ])
      Rp_suite.Programs.all
  in
  table "Figure 5: Total Operations" (fun c -> c.ops);
  table "Figure 6: Stores" (fun c -> c.stores);
  table "Figure 7: Loads" (fun c -> c.loads)

(* ------------------------------------------------------------------ *)
(* §5 in-text: "register promotion removed 2.8 million loads from one  *)
(* function in mlink"                                                  *)
(* ------------------------------------------------------------------ *)

let mlink_function () =
  Fmt.pr "@.== Section 5: mlink's hot function (per-function counts) ==@.";
  Fmt.pr
    "%-18s %-9s %10s %10s   (paper: promotion removed 2.8M loads from one \
     function)@."
    "Function" "promotion" "loads" "stores";
  let p = Rp_suite.Programs.find "mlink" in
  List.iter
    (fun (name, cfg) ->
      let (_, _, r) = run_raw "mlink" cfg p.Rp_suite.Programs.source in
      List.iter
        (fun (fn, (c : I.counts)) ->
          if fn = "likelihood_pass" then
            Fmt.pr "%-18s %-9s %10d %10d@." fn name c.I.loads c.I.stores)
        r.I.per_func)
    [
      ("without", { Config.default with Config.promote = false });
      ("with", Config.default);
    ]

(* ------------------------------------------------------------------ *)
(* §3.3: scalar promotion vs scalar + pointer-based promotion          *)
(* ------------------------------------------------------------------ *)

(* scalar promotion alone, then pointer-based promotion on top *)
let s33_configs =
  let scalar = { Config.default with Config.analysis = Config.Apointer } in
  [ ("s33/scalar", scalar); ("s33/both", { scalar with Config.ptr_promote = true }) ]

let section33 () =
  Fmt.pr "@.== Section 3.3: pointer-based promotion on top of scalar ==@.";
  Fmt.pr
    "%-10s %14s %14s %14s %10s   (additional removals vs scalar-only; paper: \
     ~0 everywhere except fft — the pointer-walk programs are this \
     reproduction's additions)@."
    "Program" "ops" "stores" "loads" "promoted";
  List.iter
    (fun (p : Rp_suite.Programs.program) ->
      let cell_named cname = cell p cname (List.assoc cname s33_configs) in
      let a = cell_named "s33/scalar" and b = cell_named "s33/both" in
      if a.checksum <> b.checksum then
        Fmt.failwith "checksum mismatch (3.3) for %s" p.Rp_suite.Programs.name;
      Fmt.pr "%-10s %14d %14d %14d %10d@." p.Rp_suite.Programs.name
        (a.ops - b.ops) (a.stores - b.stores) (a.loads - b.loads)
        b.ptr_promoted)
    Rp_suite.Programs.all

(* ------------------------------------------------------------------ *)
(* §5 register pressure and the ablations of DESIGN.md §6             *)
(* ------------------------------------------------------------------ *)

(** A table of dynamic counts: one (ops, loads, stores) row per
    [(label, label, program, cell name, config)], under two labelled
    columns of the given widths and an optional note. *)
type counts_table = {
  title : string;
  columns : (string * int) * (string * int);
  note : string;
  rows : (string * string * Rp_suite.Programs.program * string * Config.t) list;
}

let print_counts_table t =
  let ((h1, w1), (h2, w2)) = t.columns in
  Fmt.pr "@.== %s ==@." t.title;
  Fmt.pr "%-*s %-*s %12s %12s %12s%s@." w1 h1 w2 h2 "ops" "loads" "stores"
    (if t.note = "" then "" else "   (" ^ t.note ^ ")");
  List.iter
    (fun (l1, l2, p, cname, cfg) ->
      let c = cell p cname cfg in
      Fmt.pr "%-*s %-*s %12d %12d %12d@." w1 l1 w2 l2 c.ops c.loads c.stores)
    t.rows

(* rows over named programs × named configurations *)
let by_program prefix names configs =
  List.concat_map
    (fun name ->
      let p = Rp_suite.Programs.find name in
      List.map (fun (cname, cfg) -> (name, cname, p, prefix ^ cname, cfg)) configs)
    names

(* rows over water's register-file sizes × named configurations *)
let by_k cell_name configs =
  let water = Rp_suite.Programs.find "water" in
  List.concat_map
    (fun k ->
      List.map
        (fun (cname, cfg) ->
          (string_of_int k, cname, water, cell_name k cname, { cfg with Config.k }))
        configs)
    [ 12; 16; 24; 32 ]

let counts_tables () =
  let d = Config.default in
  let program = ("Program", 10) in
  [
    {
      title = "Section 5: register pressure (water)";
      columns = (("k", 4), ("promotion", 9));
      note =
        "paper: promotion causes spills and a net loss in tight register \
         files";
      rows =
        by_k
          (fun k cname -> Printf.sprintf "water/k%d/%b" k (cname = "with"))
          [
            ("without", { d with Config.analysis = Config.Amodref; promote = false });
            ("with", { d with Config.analysis = Config.Amodref; promote = true });
          ];
    };
    {
      title = "Ablation 1: what interprocedural analysis buys promotion";
      columns = (program, ("configuration", 22));
      note =
        "without analysis every call carries ⊤ MOD/REF: loops containing \
         calls — clean's emit, bc's dispatch — lose their promotions; \
         call-free hot loops like mlink's keep the front end's \
         direct-access precision";
      rows =
        by_program "abl1/" [ "clean"; "bc"; "mlink" ]
          [
            ("none+promotion", { d with Config.analysis = Config.Anone });
            ("modref+promotion", d);
          ];
    };
    {
      title = "Ablation 2: unconditional exit stores (the paper's literal scheme)";
      columns = (program, ("configuration", 22));
      note = "always_store adds write-backs for read-only promotions";
      rows =
        by_program "abl2/" [ "go"; "bison"; "gzip(dec)" ]
          [
            ("store-if-stored", d);
            ("always-store", { d with Config.always_store = true });
          ];
    };
    {
      title =
        "Ablation 3: the optimizer without promotion vs promotion without \
         the optimizer";
      columns = (program, ("configuration", 22));
      note = "";
      rows =
        by_program "abl3/" [ "mlink"; "clean" ]
          [
            ("neither", { d with Config.promote = false; optimize = false });
            ("optimizer-only", { d with Config.promote = false });
            ("promotion-only", { d with Config.optimize = false });
            ("both", d);
          ];
    };
    {
      title = "Ablation 4: the §7 pressure throttle (future work, implemented)";
      columns = (("k", 4), ("promotion", 12));
      note =
        "water; the throttle keeps the least-referenced promotable values \
         in memory instead of spilling";
      rows =
        by_k
          (fun k cname -> Printf.sprintf "abl4/%s/k%d" cname k)
          [
            ("without", { d with Config.promote = false });
            ("naive", d);
            ("throttled", { d with Config.throttle = true });
          ];
    };
    {
      title =
        "Ablation 5: global dead-store elimination (a §3.4 extension, off \
         by default)";
      columns = (program, ("configuration", 12));
      note = "";
      rows =
        by_program "abl5/" [ "mlink"; "indent"; "gzip(enc)" ]
          [ ("paper", d); ("paper+dse", { d with Config.dse = true }) ];
    };
    {
      title = "Ablation 6: the analysis-precision ladder (with promotion)";
      columns = (program, ("analysis", 9));
      note =
        "none < Steensgaard [20] < MOD/REF < Ruf-style points-to; the \
         paper's claim is that the top rungs barely differ";
      rows =
        by_program "abl6/" [ "fft"; "bc"; "clean"; "go" ]
          (List.map
             (fun analysis ->
               (Config.analysis_name analysis, { d with Config.analysis }))
             [ Config.Anone; Config.Asteens; Config.Amodref; Config.Apointer ]);
    };
  ]

(** Every (program, cell-name, config) the table sections will request,
    in request order — the parallel prewarm's work list. *)
let table_cells () : (Rp_suite.Programs.program * string * Config.t) list =
  List.concat_map
    (fun (p : Rp_suite.Programs.program) ->
      List.map (fun (cname, cfg) -> (p, cname, cfg)) (Config.paper_grid @ s33_configs))
    Rp_suite.Programs.all
  @ List.concat_map
      (fun t -> List.map (fun (_, _, p, cname, cfg) -> (p, cname, cfg)) t.rows)
      (counts_tables ())

(* ------------------------------------------------------------------ *)
(* --json: the paper grid, locally or through rpcc serve               *)
(* ------------------------------------------------------------------ *)

module Json = Rp_support.Json
module R = Rp_support.Resilience
module Breaker = Rp_support.Retry.Breaker
module Fleet = Rp_serve.Fleet
module Router = Rp_serve.Fleet_client

let cell_json = function
  | Cok c ->
    Json.Obj
      [
        ("ops", Json.Int c.ops);
        ("loads", Json.Int c.loads);
        ("stores", Json.Int c.stores);
        ("checksum", Json.Int c.checksum);
        ("ptr_promoted", Json.Int c.ptr_promoted);
      ]
  | Cquarantined reason -> Json.Obj [ ("degraded", Json.Str reason) ]

let cell_of_json = function
  | Json.Obj
      [
        ("ops", Json.Int ops);
        ("loads", Json.Int loads);
        ("stores", Json.Int stores);
        ("checksum", Json.Int checksum);
        ("ptr_promoted", Json.Int ptr_promoted);
      ] ->
    Some (Cok { ops; loads; stores; checksum; ptr_promoted })
  | Json.Obj [ ("degraded", Json.Str reason) ] -> Some (Cquarantined reason)
  | _ -> None

(** Host/toolchain provenance for the timings document: timings are
    machine-dependent, so the machine is named in the file — kernel/arch,
    the C compiler identity (even for interpreted runs, so an
    interp-vs-native pair taken on one host is self-describing), and the
    OCaml word size. *)
let host_json () =
  let first_line_of cmd =
    try
      let ic = Unix.open_process_in cmd in
      let line = try Some (input_line ic) with End_of_file -> None in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> None)
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  let uname =
    Option.value (first_line_of "uname -srm 2>/dev/null") ~default:"unknown"
  in
  let cc_id =
    match !native_cc with
    | Some cc -> cc.Rp_backend.Native.identity
    | None -> (
      (* memoized per process and persisted through the CAS identity
         cache: an all-warm campaign writes its host record without
         spawning `cc --version` at all *)
      match Rp_backend.Native.find_cc ~cache:(Lazy.force native_cas) () with
      | Some cc -> cc.Rp_backend.Native.identity
      | None -> "unavailable")
  in
  Json.Obj
    [
      ("uname", Json.Str uname);
      ("cc", Json.Str cc_id);
      ("word_size", Json.Int Sys.word_size);
    ]

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(** One finished grid cell: its paper counts, the fields of its
    timings-document entry, whether a native request was answered by the
    ladder's interpreter rung, and a [--verify-passes] failure that must
    abort the bench. *)
type run = {
  cell : cell_result;
  timing : (string * Json.t) list;
  fell_to_interp : bool;
  fatal : string option;
}

let degraded reason =
  {
    cell = Cquarantined reason;
    timing = [ ("degraded", Json.Str reason) ];
    fell_to_interp = false;
    fatal = None;
  }

(** One local cell: a compile+run on a supervised pool worker, behind the
    per-program circuit breaker.  A cell that exhausts its retries or
    traps lands as a degraded cell instead of aborting the grid. *)
let local_run breaker ~should_stop
    ((p : Rp_suite.Programs.program), cname, cfg) =
  let pname = p.Rp_suite.Programs.name in
  if !plant_hang = Some (pname ^ ":" ^ cname) then begin
    (* test fixture for the supervision layer: a cell that never
       terminates on its own but polls its deadline cooperatively *)
    while not (should_stop ()) do
      ignore (Sys.opaque_identity 0)
    done;
    raise Exit
  end;
  let t0 = Rp_support.Clock.now () in
  match
    Breaker.call breaker ~key:pname (fun () ->
        match !native_cc with
        | None ->
          let _, st, r =
            run_raw ~should_stop pname cfg p.Rp_suite.Programs.source
          in
          (st, r, None)
        | Some cc ->
          let st, lad =
            run_native ~should_stop pname cfg p.Rp_suite.Programs.source cc
          in
          (st, lad.Rp_backend.Native.l_result, Some lad))
  with
  | Ok (st, r, lad) ->
    let wall = Rp_support.Clock.elapsed t0 in
    (* the cell is one compile followed by one run; interpreted, the
       run's share is wall minus compile; native, it is the binary's
       measured wall time, and exec_mode names the rung that answered *)
    let run_ms, native =
      match lad with
      | None -> (1000. *. max 0. (wall -. Pipeline.total_time st), [])
      | Some l ->
        ( l.Rp_backend.Native.l_exec_ms,
          [
            ("cc_ms", Json.Float l.Rp_backend.Native.l_cc_ms);
            ("cc_cache_hit", Json.Bool l.Rp_backend.Native.l_cache_hit);
            ( "exec_mode",
              Json.Str
                (match l.Rp_backend.Native.l_mode with
                | `Native -> "native"
                | `Interp -> "interp") );
          ] )
    in
    {
      cell = Cok (cell_of st r);
      timing =
        (("wall_ms", Json.Float (1000. *. wall))
         :: ("run_ms", Json.Float run_ms) :: native)
        @ [ ("compile", Pipeline.stats_json cfg st) ];
      fell_to_interp =
        (match lad with
        | Some { Rp_backend.Native.l_mode = `Interp; _ } -> true
        | _ -> false);
      fatal = None;
    }
  | Error (Breaker.Open_circuit key) ->
    degraded (Printf.sprintf "%s under %s: circuit open for %s" pname cname key)
  | Error (Quarantined m) when has_substring m "external stop" ->
    (* the interpreter was stopped by the pool's deadline, not by its
       own fuel: re-raise so the pool classifies the attempt as timed
       out and applies the retry policy *)
    raise (Quarantined m)
  | Error (Quarantined m) -> degraded m
  | Error (Failure m) -> { (degraded m) with fatal = Some m }
  | Error e -> raise e

(** The local grid: cells run under {!Rp_support.Pool.run_journaled} on
    [!jobs] worker domains, so [--journal] records every finished cell
    and [--resume] recomputes only the missing ones.  SIGINT flushes the
    journal and exits 130.  Under [--verify-passes] a degraded pass is
    still fatal: the first failing cell in grid order aborts, as in a
    sequential run. *)
let local_runs resil breaker items =
  let name (p : Rp_suite.Programs.program) = p.Rp_suite.Programs.name in
  let results =
    Rp_support.Pool.run_journaled ~jobs:!jobs ?timeout:!job_timeout
      ~retries:!job_retries
      ~cancel:(fun () -> Atomic.get interrupted)
      ~resilience:resil ?journal:!journal_path ?resume:!resume_path
      ~key:(fun (p, cname, _) -> (name p, cname))
      ~encode:(fun (p, cname, _) r ->
        if r.fatal <> None then None
        else
          Some
            (Json.Obj
               [
                 ("program", Json.Str (name p));
                 ("config", Json.Str cname);
                 ("cell", cell_json r.cell);
               ]))
      ~decode:(function
        | Json.Obj
            [ ("program", Json.Str p); ("config", Json.Str c); ("cell", cj) ]
          ->
          Option.map
            (fun cell ->
              ( (p, c),
                (* the timing was spent in the journaled run *)
                {
                  cell;
                  timing = [ ("resumed", Json.Bool true) ];
                  fell_to_interp = false;
                  fatal = None;
                } ))
            (cell_of_json cj)
        | _ -> None)
      (local_run breaker) (Array.of_list items)
  in
  if Atomic.get interrupted then begin
    let finished =
      Array.fold_left (fun n o -> if Result.is_ok o then n + 1 else n) 0 results
    in
    Fmt.epr "interrupted after %d/%d finished cells%s@." finished
      (Array.length results)
      (match !journal_path with
      | Some p -> Printf.sprintf "; resume with --resume %s" p
      | None -> " (no --journal, completed work is lost)");
    exit 130
  end;
  Array.iter
    (function Ok { fatal = Some m; _ } -> failwith m | _ -> ())
    results;
  R.set resil R.Breaker_trip (Breaker.trips breaker);
  Array.map2
    (fun (p, cname, _) -> function
      | Ok r -> r
      | Error f ->
        degraded
          (Fmt.str "%s under %s: %a" (name p) cname
             Rp_support.Pool.pp_job_failure f))
    (Array.of_list items) results

let remote_req i ((p : Rp_suite.Programs.program), cname, _) =
  Json.Obj
    ([
       ("schema", Json.Str Rp_serve.Protocol.schema);
       ("id", Json.Int i);
       ("client", Json.Str "bench");
       ("op", Json.Str "run");
       ("src", Json.Str p.Rp_suite.Programs.source);
       ("config", Json.Str cname);
     ]
    @ if !native then [ ("mode", Json.Str "native") ] else [])

let rec chunks n = function
  | [] -> []
  | l ->
    List.filteri (fun i _ -> i < n) l
    :: chunks n (List.filteri (fun i _ -> i >= n) l)

(** One remote cell: the counts of a daemon response, which carries the
    compile's stats and, for native jobs, the rung that answered. *)
let remote_run ((p : Rp_suite.Programs.program), cname, _) resp =
  let at path =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some resp) path
  in
  let int k =
    match at [ "result"; k ] with Some (Json.Int i) -> Some i | _ -> None
  in
  let fail what =
    degraded
      (Printf.sprintf "%s under %s: %s" p.Rp_suite.Programs.name cname what)
  in
  match Rp_serve.Protocol.response_status resp with
  | "ok" -> (
    match (int "ops", int "loads", int "stores", int "checksum") with
    | Some ops, Some loads, Some stores, Some checksum ->
      let ptr_promoted =
        match at [ "stats"; "counters"; "ptr_promoted" ] with
        | Some (Json.Int n) -> n
        | _ -> 0
      in
      {
        cell = Cok { ops; loads; stores; checksum; ptr_promoted };
        timing =
          List.filter_map
            (fun (k, path) -> Option.map (fun v -> (k, v)) (at path))
            [ ("exec_mode", [ "exec"; "mode" ]); ("compile", [ "stats" ]) ];
        fell_to_interp = at [ "exec"; "degraded" ] = Some (Json.Bool true);
        fatal = None;
      }
    | _ -> fail "malformed daemon result")
  | status ->
    fail
      (Printf.sprintf "daemon %s: %s" status
         (match at [ "message" ] with Some (Json.Str m) -> m | _ -> "no message"))

(** Chaos-drill step two: flip one payload byte of a cached native
    binary in the fleet's shared store, leaving the stale CRC in place.
    The next shard to read the entry quarantines it ([Cas.get] verifies
    the checksum) and the degradation ladder recompiles — the counts
    document must not notice.  No-op when no native binary is cached
    yet (interp drills, cold stores). *)
let corrupt_native_bin cas_root =
  let objects = Filename.concat cas_root "objects" in
  let ls d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  match
    List.concat_map
      (fun shard ->
        let dir = Filename.concat objects shard in
        List.filter_map
          (fun f ->
            if Filename.check_suffix f ".native-bin" then
              Some (Filename.concat dir f)
            else None)
          (ls dir))
      (ls objects)
  with
  | [] -> ()
  | path :: _ -> (
    try
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let len = Unix.lseek fd 0 Unix.SEEK_END in
          if len > 0 then begin
            ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET : int);
            let b = Bytes.create 1 in
            if Unix.read fd b 0 1 = 1 then begin
              Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
              ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET : int);
              ignore (Unix.write fd b 0 1 : int)
            end
          end)
    with Unix.Unix_error _ -> ())

(** The remote grid: every cell goes out as an [rpcc-serve/2] [run]
    request through the rendezvous router — an existing daemon is a
    one-socket router, a fleet one socket per shard — in batches of 32,
    inside the daemon's default queue bound of 64.  Responses come back
    in request order and are deterministic given the shared store.
    Under a fleet, [--plant-crash] SIGKILLs the second batch's
    first-choice shard right before it is sent, after corrupting a cached
    native binary: the router must fail the batch over and the
    supervisor must respawn the victim, with no effect on the counts. *)
let remote_runs ?fleet router items =
  let plant =
    match fleet with
    | Some f when !plant_crash ->
      Some
        (fun s ->
          corrupt_native_bin (Fleet.cas_dir f);
          Fleet.kill_shard f s)
    | _ -> None
  in
  chunks 32 (List.mapi remote_req items)
  |> List.mapi (fun bi batch ->
         Router.route ?plant:(if bi = 1 then plant else None) router batch)
  |> List.concat
  |> List.map2 remote_run items
  |> Array.of_list

type backend = Local | Remote of string list

(** The [--json] experiment on any backend: run the paper grid (program ×
    {!Config.paper_grid}) and write [BENCH_counts.json] and
    [BENCH_timings.json].

    The counts document ([rpcc-bench-counts/7]) is the paper's data only
    — dynamic counts, checksum, and [ptr_promoted] per cell, or the
    reason a cell was degraded — so it is byte-identical across [-j],
    backends, execution modes, chaos drills, and resumes.  Everything
    about the run itself goes to the timings document
    ([rpcc-bench-timings/5]): per-cell wall/run/compile time and native
    rung, host provenance, the grid's wall-clock, the [resilience]
    counters with per-program breaker snapshots, [exec.degraded_native]
    (cells a native campaign answered from the interpreter rung), and
    under a fleet its supervisor and router telemetry. *)
let grid ?fleet backend =
  let resil = R.create () in
  let breaker = Breaker.create ~threshold:!breaker_threshold () in
  let items =
    List.concat_map
      (fun (p : Rp_suite.Programs.program) ->
        List.map (fun (cname, cfg) -> (p, cname, cfg)) Config.paper_grid)
      Rp_suite.Programs.all
  in
  let t0 = Rp_support.Clock.now () in
  let (runs, router) =
    match backend with
    | Local -> (local_runs resil breaker items, None)
    | Remote sockets ->
      let router = Router.create ~timeout:300. ~resilience:resil ~sockets () in
      (remote_runs ?fleet router items, Some router)
  in
  let grid_wall = Rp_support.Clock.elapsed t0 in
  let fleet_json =
    match (fleet, router) with
    | Some f, Some router ->
      (* let the supervisor finish respawning any planted kill before
         the telemetry is frozen *)
      let deadline = Rp_support.Clock.now () +. 15. in
      while
        Fleet.respawns f < Fleet.planted f && Rp_support.Clock.now () < deadline
      do
        Unix.sleepf 0.1
      done;
      R.merge ~into:resil (Fleet.resilience f);
      [
        ( "fleet",
          Json.Obj
            [
              ("shards", Json.Int (Router.shards router));
              ("supervisor", Fleet.telemetry_json f);
              ("router", Router.telemetry_json router);
            ] );
      ]
    | _ -> []
  in
  let nconfigs = List.length Config.paper_grid in
  let table f =
    Json.Obj
      (List.mapi
         (fun i (p : Rp_suite.Programs.program) ->
           ( p.Rp_suite.Programs.name,
             Json.Obj
               (List.mapi
                  (fun j (cname, _) -> (cname, f runs.((i * nconfigs) + j)))
                  Config.paper_grid) ))
         Rp_suite.Programs.all)
  in
  let compile_ms r =
    match
      Option.bind (List.assoc_opt "compile" r.timing) (Json.member "total_ms")
    with
    | Some (Json.Float ms) -> ms
    | _ -> 0.
  in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 runs in
  Json.to_file "BENCH_counts.json"
    (Json.Obj
       [
         ("schema", Json.Str "rpcc-bench-counts/7");
         ("programs", table (fun r -> cell_json r.cell));
       ]);
  Json.to_file "BENCH_timings.json"
    (Json.Obj
       ([
          ("schema", Json.Str "rpcc-bench-timings/5");
          ("jobs", Json.Int !jobs);
          ("mode", Json.Str (if !native then "native" else "interp"));
          ("host", host_json ());
          ("programs", table (fun r -> Json.Obj r.timing));
          ( "total_compile_ms",
            Json.Float
              (Array.fold_left (fun acc r -> acc +. compile_ms r) 0. runs) );
          ("grid_wall_ms", Json.Float (1000. *. grid_wall));
          ( "resilience",
            R.to_json ~breakers:(Breaker.snapshots_json breaker) resil );
          ( "exec",
            Json.Obj
              [ ("degraded_native", Json.Int (count (fun r -> r.fell_to_interp))) ]
          );
        ]
       @ fleet_json));
  if R.any resil then Fmt.epr "resilience: %a@." R.pp resil;
  Fmt.pr "wrote BENCH_counts.json (%d programs x %d configs)@."
    (List.length Rp_suite.Programs.all)
    nconfigs;
  Fmt.pr "wrote BENCH_timings.json (grid wall %.1f ms)@." (1000. *. grid_wall)

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches (one Test.make per table)                   *)
(* ------------------------------------------------------------------ *)

let timings () =
  let open Bechamel in
  let mlink = (Rp_suite.Programs.find "mlink").Rp_suite.Programs.source in
  let go = (Rp_suite.Programs.find "go").Rp_suite.Programs.source in
  let compile cfg src () = ignore (Pipeline.compile ~config:cfg src) in
  let grid name = List.assoc name Config.paper_grid in
  let tests =
    Test.make_grouped ~name:"tables"
      [
        (* Figure 4 is the front end itself *)
        Test.make ~name:"figure4_frontend"
          (Staged.stage (fun () ->
               List.iter
                 (fun (p : Rp_suite.Programs.program) ->
                   ignore (Rp_irgen.Irgen.compile_source p.Rp_suite.Programs.source))
                 Rp_suite.Programs.all));
        (* Figures 5-7 all flow through the grid pipeline; time one
           representative program per figure *)
        Test.make ~name:"figure5_pipeline_modref"
          (Staged.stage (compile (grid "modref/with") mlink));
        Test.make ~name:"figure6_pipeline_pointer"
          (Staged.stage (compile (grid "pointer/with") mlink));
        Test.make ~name:"figure7_pipeline_go"
          (Staged.stage (compile (grid "pointer/with") go));
        (* §3.3 adds pointer-based promotion *)
        Test.make ~name:"section33_ptr_promotion"
          (Staged.stage
             (compile
                { Config.default with
                  Config.analysis = Config.Apointer; ptr_promote = true }
                (Rp_suite.Programs.find "fft").Rp_suite.Programs.source));
        (* the pressure table exercises the allocator *)
        Test.make ~name:"pressure_regalloc_k12"
          (Staged.stage
             (compile
                { Config.default with Config.k = 12 }
                (Rp_suite.Programs.find "water").Rp_suite.Programs.source));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Fmt.pr "@.== Compiler timings (Bechamel, monotonic clock) ==@.";
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Fmt.pr "%-40s %12.0f ns/run@." name est
          | _ -> Fmt.pr "%-40s %12s@." name "n/a")
        (List.sort compare rows))
    results

(* ------------------------------------------------------------------ *)

(** The tables, [--timings], or the [--json] grid on the backend the
    flags select.  Incompatible flag combinations are command-line
    errors (exit 2 with a usage line). *)
let main want_timings want_tables want_json verify_passes jobs_n timeout
    retries threshold journal resume hang via_daemon via_fleet want_native
    plant_cc_failure cc_flags want_plant_crash fleet_state =
  let remote = via_daemon <> None || via_fleet <> None in
  let conflicts =
    [
      (plant_cc_failure && not want_native, "--plant-cc-failure requires --native");
      (want_native && not want_json, "--native requires --json");
      ( plant_cc_failure && remote,
        "--plant-cc-failure plants a local compiler and cannot be combined \
         with --via-daemon/--via-fleet" );
      ( via_daemon <> None && via_fleet <> None,
        "--via-daemon and --via-fleet are mutually exclusive" );
      (* supervision, journaling, and verification live backend-side *)
      ( remote
        && (journal <> None || resume <> None || hang <> None || verify_passes),
        "--via-daemon/--via-fleet cannot be combined with \
         --journal/--resume/--plant-hang/--verify-passes" );
      (want_plant_crash && via_fleet = None, "--plant-crash requires --via-fleet");
      (hang <> None && timeout = None, "--plant-hang requires --job-timeout");
    ]
  in
  match List.find_opt fst conflicts with
  | Some (_, msg) -> `Error (true, msg)
  | None ->
    verify := verify_passes;
    jobs := jobs_n;
    job_timeout := timeout;
    job_retries := retries;
    breaker_threshold := threshold;
    journal_path := journal;
    resume_path := resume;
    plant_hang := hang;
    native := want_native;
    plant_crash := want_plant_crash;
    if want_native && not remote then begin
      let flags = List.filter (( <> ) "") (String.split_on_char ' ' cc_flags) in
      (native_cc :=
         if plant_cc_failure then
           (* a compiler that cannot exist: every cell's native attempt
              (and its recompile retry) fails, forcing the interpreter
              rung; the fake identity keeps its binary keys clear of any
              real compiler's warm cache, so the failure cannot be masked
              by a cached binary *)
           Some
             {
               Rp_backend.Native.path = "/nonexistent/rpcc-planted-cc";
               flags;
               identity = "planted-broken-cc";
             }
         else Rp_backend.Native.find_cc ~cache:(Lazy.force native_cas) ~flags ());
      if !native_cc = None then begin
        Fmt.epr "--native: no working C compiler found (probed `cc --version`)@.";
        exit 2
      end;
      ignore (Lazy.force native_cas : Rp_support.Cas.t)
    end;
    (if want_json then
       try
         (* a shard killed mid-exchange must surface as EPIPE, which the
            router fails over, not as a fatal SIGPIPE *)
         if remote then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
         match (via_daemon, via_fleet) with
         | Some socket, _ ->
           if not (Rp_serve.Client.wait_ready ~attempts:1 ~delay:0. ~socket ())
           then begin
             Fmt.epr "cannot reach daemon at %s@." socket;
             exit 2
           end;
           grid (Remote [ socket ])
         | None, Some shards ->
           let t0 = Rp_support.Clock.now () in
           let fleet =
             Fleet.start
               { Fleet.default_config with
                 Fleet.shards; state_dir = fleet_state; jobs = !jobs }
           in
           Fmt.pr "fleet up: %.1f ms@." (1000. *. Rp_support.Clock.elapsed t0);
           Fun.protect
             ~finally:(fun () -> Fleet.stop fleet)
             (fun () -> grid ~fleet (Remote (Fleet.sockets fleet)))
         | None, None ->
           (try
              Sys.set_signal Sys.sigint
                (Sys.Signal_handle (fun _ -> Atomic.set interrupted true))
            with Invalid_argument _ | Sys_error _ -> ());
           grid Local
       with Router.All_shards_dead ->
         Fmt.epr "all shards dead@.";
         exit 3
     else begin
       let only_timings = want_timings && not want_tables in
       if not only_timings then begin
         Fmt.pr
           "Register Promotion in C Programs (Cooper & Lu, PLDI 1997) — \
            reproduction@.";
         Fmt.pr
           "Memory-operation hierarchy (Table 1): iLoad, cLoad, sLoad/sStore, \
            Load/Store@.";
         (* each table section survives a quarantined program: the reason is
            printed in place and the remaining sections still run *)
         let section f =
           try f () with Quarantined m -> Fmt.pr "  quarantined: %s@." m
         in
         (* compute the full grid in parallel before any table renders; the
            sections below then read the memo cache in their fixed order *)
         if !jobs > 1 then prewarm (table_cells ());
         figure4 ();
         section metric_tables;
         section mlink_function;
         section section33;
         List.iter
           (fun t -> section (fun () -> print_counts_table t))
           (counts_tables ());
         Fmt.pr "@.All configurations produced identical checksums per program.@."
       end;
       if want_timings then timings ()
     end);
    `Ok ()

let () =
  let open Cmdliner in
  let module Cli = Rp_support.Cli in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let opt c default name docv doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  let term =
    Term.(
      ret
        (const main
        $ flag "timings" "Run the Bechamel wall-clock benches, one per table."
        $ flag "tables" "With $(b,--timings), print the count tables too."
        $ flag "json"
            "Run the paper grid and write BENCH_counts.json (the counts) and \
             BENCH_timings.json (everything about the run) instead of the \
             tables."
        $ Cli.verify_passes_t $ Cli.jobs_t $ Cli.job_timeout_t $ Cli.retries_t
        $ opt Cli.positive 3 "breaker-threshold" "N"
            "Consecutive cell failures that open a program's circuit \
             breaker, degrading its remaining cells."
        $ Cli.journal_t $ Cli.resume_t
        $ opt Arg.(some string) None "plant-hang" "PROGRAM:CONFIG"
            "Test fixture: the named cell never finishes on its own \
             (requires $(b,--job-timeout))."
        $ opt Arg.(some string) None "via-daemon" "SOCKET"
            "Run the grid through the rpcc serve daemon listening on \
             $(docv)."
        $ opt Arg.(some Cli.positive) None "via-fleet" "N"
            "Run the grid through a supervised fleet of $(docv) rpcc serve \
             shards started for the run."
        $ flag "native"
            "Execute every cell through the compiled-C backend's degradation \
             ladder (native, recompile once, interpreter)."
        $ flag "plant-cc-failure"
            "Fault drill for $(b,--native): plant a compiler that cannot \
             run, so every cell falls to the interpreter rung."
        $ opt Arg.string "-O1" "cc-flags" "FLAGS"
            "C compiler flags for $(b,--native), space-separated."
        $ flag "plant-crash"
            "Chaos drill for $(b,--via-fleet): SIGKILL a shard and corrupt a \
             cached native binary mid-campaign."
        $ opt Arg.string ".rpcc-fleet" "fleet-state" "DIR"
            "State directory of the $(b,--via-fleet) fleet."))
  in
  exit
    (Cli.eval
       (Cmd.v
          (Cmd.info "bench"
             ~doc:
               "Regenerate the tables and figures of the paper's evaluation.")
          term))
