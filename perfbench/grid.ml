(** The paper-grid and native-warm workloads: the 18 suite programs × the
    six {!Rp_driver.Config.paper_grid} cells, one job at a time, compiled
    in-process and then run on the interpreter (paper-grid) or as cached
    native binaries through the degradation ladder (native-warm). *)

open Common
module Programs = Rp_suite.Programs
module Native = Rp_backend.Native

type cell = {
  prog : string;
  cname : string;
  config : Config.t;
  src : string;
  key : string;  (** ["prog config"], unique *)
}

let cells =
  Array.of_list
    (List.concat_map
       (fun (p : Programs.program) ->
         List.map
           (fun (cname, config) ->
             { prog = p.name; cname; config; src = p.source; key = p.name ^ " " ^ cname })
           Config.paper_grid)
       Programs.all)

(** Digest of the inputs: suite sources and the configuration list. *)
let digest =
  Cas.key
    (("perfbench-grid/1"
     :: List.concat_map (fun (p : Programs.program) -> [ p.name; p.source ]) Programs.all)
    @ List.map (fun (n, c) -> n ^ "=" ^ Config.fingerprint c) Config.paper_grid)

(** Reference results that do not come from the optimizer under test:
    each program's output checksum, pinned in [perfbench/checksums.json],
    and each cell's dynamic counts from the committed [BENCH_counts.json]. *)
let references () =
  let member what doc k =
    match Json.member k doc with
    | Some v -> v
    | None -> failwith (Printf.sprintf "reference %s: no field %S" what k)
  in
  let int what doc k =
    match member what doc k with
    | Json.Int i -> i
    | _ -> failwith (Printf.sprintf "reference %s: %S is not an integer" what k)
  in
  let sums = member "checksums" (Json.of_file "perfbench/checksums.json") "checksums" in
  let committed = member "BENCH_counts.json" (Json.of_file "BENCH_counts.json") "programs" in
  Array.map
    (fun c ->
      let cell = member c.key (member c.prog committed c.prog) c.cname in
      (int "checksums" sums c.prog, (int c.key cell "ops", int c.key cell "loads", int c.key cell "stores")))
    cells

type state = {
  acc : acc;
  refs : (int * (int * int * int)) array;
  instrs : int option array;  (** post-pipeline IR size per cell *)
  counts : (int * int * int) option array;  (** measured ops, loads, stores per cell *)
  run_ms : float list array;  (** execution-time samples per cell *)
  lat_ms : float list array;  (** untraced latencies per cell *)
}

(** Record cell [i]'s post-pipeline size, or check that it repeats. *)
let observe_instrs st i p =
  let v = Rp_ir.Program.size p in
  match st.instrs.(i) with
  | None -> st.instrs.(i) <- Some v
  | Some v' when v' = v -> ()
  | Some v' ->
    fail st.acc (Printf.sprintf "determinism: %s code_instrs %d then %d" cells.(i).key v' v)

(** Check an execution against the references, and its counts against
    the cell's first execution in this run. *)
let check st i (r : Interp.result) =
  let checksum, counts = st.refs.(i) in
  let t = r.Interp.total in
  let measured = (t.Interp.ops, t.Interp.loads, t.Interp.stores) in
  (match st.counts.(i) with
  | None -> st.counts.(i) <- Some measured
  | Some first when first = measured -> ()
  | Some _ -> fail st.acc (Printf.sprintf "determinism: %s counts changed" cells.(i).key));
  check_result cells.(i).key r ~checksum ~counts ()

(** A seeded permutation of the cells, fresh for each round. *)
let order rng =
  let a = Array.init (Array.length cells) Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** How a workload compiles and runs one cell. *)
type hooks = {
  setup : state -> int -> unit;  (** one cell's share of a set-up pass *)
  exec : state -> int -> Rp_ir.Program.t * string list;
      (** one job: the compiled program and the failed checks *)
  probe : state -> int -> Rp_ir.Program.t -> unit;
      (** traced-only measurements beside the job *)
  extra : unit -> (string * float) list;
      (** workload-computed per-layer values, read after the traced phase *)
}

let run_job st h i =
  let t0 = now () in
  match Trace.job i (fun () -> h.exec st i) with
  | p, errors ->
    if not !Trace.enabled then st.lat_ms.(i) <- (1000. *. (now () -. t0)) :: st.lat_ms.(i);
    observe_instrs st i p;
    job st.acc errors;
    if !Trace.enabled then h.probe st i p
  | exception e -> job st.acc [ cells.(i).key ^ ": " ^ Printexc.to_string e ]

(** Whole rounds over all cells, each in a fresh seeded order, until
    [seconds] of job time accumulate; returns each round's seconds.
    Probe time is left out of the seconds. *)
let phase st h ~seconds ~rng =
  rounds ~seconds (fun () ->
      let t0 = now () and p0 = Trace.probe_s () in
      Array.iter (run_job st h) (order rng);
      now () -. t0 -. (Trace.probe_s () -. p0))

(** Set up {!setup_reps} times (median reported), run the untraced phase — the
    whole run, or half of it when tracing — then the traced phase.  The
    peak RSS is that of the untraced phase alone. *)
let drive ctx acc h : outcome =
  let n = Array.length cells in
  let st =
    {
      acc;
      refs = references ();
      instrs = Array.make n None;
      counts = Array.make n None;
      run_ms = Array.make n [];
      lat_ms = Array.make n [];
    }
  in
  let setup_s = median_time setup_reps (fun _ -> for i = 0 to n - 1 do h.setup st i done) in
  let rng = Random.State.make [| ctx.seed |] in
  let half = if ctx.trace then ctx.seconds /. 2. else ctx.seconds in
  Gc.full_major ();
  reset_peak_rss ();
  let round_s = phase st h ~seconds:half ~rng in
  let peak_rss_mb = peak_rss_mb "self" in
  let layers =
    if not ctx.trace then []
    else begin
      Trace.enabled := true;
      let traced_s = phase st h ~seconds:half ~rng in
      Trace.enabled := false;
      layer_metrics ~rounds:(List.length traced_s)
        ~extra:
          (("trace.overhead_pct", overhead_pct ~untraced:round_s ~traced:traced_s)
          :: h.extra ())
    end
  in
  let code_instrs = Array.fold_left (fun a v -> a + Option.value ~default:0 v) 0 st.instrs in
  let ops, loads, stores =
    Array.fold_left
      (fun (o, l, s) c ->
        let o', l', s' = Option.value ~default:(0, 0, 0) c in
        (o + o', l + l', s + s'))
      (0, 0, 0) st.counts
  in
  determinism_guard acc ctx ~digest
    [ ("dyn_ops", ops); ("dyn_loads", loads); ("dyn_stores", stores); ("code_instrs", code_instrs) ];
  {
    setup_s;
    lat_ms = st.lat_ms;
    round_s;
    jobs = n * List.length round_s;
    dyn = (ops, loads, stores);
    run_ms = Some (Array.fold_left (fun a l -> if l = [] then a else a +. median l) 0. st.run_ms);
    code_instrs;
    peak_rss_mb;
    digest;
    layers;
    notes = [];
  }

let sample st i ms = st.run_ms.(i) <- ms :: st.run_ms.(i)

(* ------------------------------------------------------------------ *)
(* paper-grid                                                          *)
(* ------------------------------------------------------------------ *)

let paper ctx acc =
  let exec st i =
    let c = cells.(i) in
    let p, _ = compile ~cell:c.key ~config:c.config c.src in
    let t0 = now () in
    let r = interp p in
    sample st i (1000. *. (now () -. t0));
    (p, check st i r)
  in
  (* the tag checks' cost: rerun each program with them off, beside the job *)
  let probe _ i p = Trace.probe i "exec.interp.nocheck" (fun () -> interp_nocheck p) in
  let extra () = [] in
  let setup st i =
    let c = cells.(i) in
    observe_instrs st i (fst (Pipeline.compile ~config:c.config c.src))
  in
  drive ctx acc { setup; exec; probe; extra }

(* ------------------------------------------------------------------ *)
(* native-warm                                                         *)
(* ------------------------------------------------------------------ *)

(** The binary-cache key {!Native.compile} stores a program's binary
    under when called without [?key] (its documented layout): the emitted
    C itself, so a binary always belongs to the code under test.  For the
    traced run's direct [Cas.get] probe. *)
let bin_key (cc : Native.cc) csrc =
  Cas.key [ Rp_backend.Cgen.version; csrc; cc.Native.identity; String.concat " " cc.Native.flags ]

let native_store state =
  let dir = Filename.concat state "native-cas" in
  mkdir_p dir;
  let cache = Cas.open_ dir in
  match Native.find_cc ~cache () with
  | Some cc -> (cache, cc)
  | None -> failwith "native-warm needs a C compiler (cc on PATH)"

(** Fill the binary cache: cc runs only for programs it does not hold yet
    (a fresh checkout, or a change to the code that emits them), on two
    workers.  Binaries are keyed by the emitted C, not by source and
    config, so a store that outlives a rebuild never answers for other
    code.  Runs in a child process ([perfbench fill-native STATE]), so
    that its memory peak stays out of the measuring process. *)
let fill_native state =
  let cache, cc = native_store state in
  ignore
    (Rp_support.Pool.run_exn ~jobs:2
       (fun c ->
         let p, _ = Pipeline.compile ~config:c.config c.src in
         let bin, hit = Native.compile ~cache ~cc p in
         Sys.remove bin;
         hit)
       cells
      : bool array)

let native ctx acc =
  let t0 = now () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "fill-native"; ctx.state |] Unix.stdin Unix.stderr Unix.stderr in
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "native-warm: filling the binary cache failed");
  let fill_s = now () -. t0 in
  let cache, cc = native_store ctx.state in
  let quarantined () = (Cas.stats cache).Cas.quarantined in
  let q0 = quarantined () in
  let setup st i =
    let c = cells.(i) in
    let p, _ = Pipeline.compile ~config:c.config c.src in
    observe_instrs st i p;
    let bin, _ = Native.compile ~cache ~cc p in
    Sys.remove bin
  in
  let exec st i =
    let c = cells.(i) in
    let p, _ = compile ~cell:c.key ~config:c.config c.src in
    let t0 = now () in
    let l =
      Trace.span "backend.native.run_laddered" (fun () ->
          Native.run_laddered ~cache
            ~interp:(fun () ->
              let t0 = now () in
              let r = Interp.run p in
              (r, 1000. *. (now () -. t0)))
            ~cc:(Some cc) p)
    in
    let wall_ms = 1000. *. (now () -. t0) in
    sample st i l.Native.l_exec_ms;
    Trace.count "backend.native.jobs" 1.;
    Trace.count "backend.native.hits" (if l.Native.l_cache_hit then 1. else 0.);
    Trace.count "backend.native.self_ms" l.Native.l_exec_ms;
    Trace.count "backend.native.exec_wall_ms" (wall_ms -. l.Native.l_cc_ms);
    Trace.count "backend.native.harness_ms" (wall_ms -. l.Native.l_exec_ms);
    let ladder =
      match (l.Native.l_mode, l.Native.l_degraded) with
      | `Native, None -> []
      | _, reason ->
        Trace.count "backend.native.degraded" 1.;
        [ c.key ^ ": native ladder descended: " ^ Option.value ~default:"interp" reason ]
    in
    (p, ladder @ check st i l.Native.l_result)
  in
  let probe _ i p =
    let csrc = ref "" in
    Trace.probe i "backend.cgen" (fun () ->
        csrc := Rp_backend.Cgen.emit p;
        Trace.count "backend.cgen.c_bytes" (float (String.length !csrc)));
    Trace.probe i "cas.get" (fun () ->
        Trace.count "cas.gets" 1.;
        match Cas.get cache ~key:(bin_key cc !csrc) ~kind:"native-bin" with
        | Some _ -> Trace.count "cas.hits" 1.
        | None -> ())
  in
  (* cc itself only runs on a cold cache: the traced run times one
     uncached compile of a fixed cell *)
  let cc_ms =
    if not ctx.trace then 0.
    else begin
      let c = cells.(0) in
      let p, _ = Pipeline.compile ~config:c.config c.src in
      let t0 = now () in
      let bin, _ = Native.compile ~cc p in
      Sys.remove bin;
      1000. *. (now () -. t0)
    end
  in
  let extra () =
    [ ("backend.cc.busy_ms", cc_ms); ("cas.quarantined", float (quarantined () - q0)) ]
  in
  let o = drive ctx acc { setup; exec; probe; extra } in
  if quarantined () > q0 then
    fail acc (Printf.sprintf "native cache quarantined %d entries" (quarantined () - q0));
  { o with notes = [ ("cold_fill_s", Json.Float fill_s) ] }
