(** Shared machinery: run context, failure accounting, the timed-round
    loop, quantiles, the layer-by-layer compile, the cross-run determinism
    guard, and the per-layer metric table. *)

module Json = Rp_support.Json
module Cas = Rp_support.Cas
module Config = Rp_driver.Config
module Pipeline = Rp_driver.Pipeline
module Interp = Rp_exec.Interp

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  state : string;  (** benchmark-owned scratch state, inside the checkout *)
  rpcc : string;  (** the rpcc executable, for the daemon workload *)
}

let now = Rp_support.Clock.now

(** What a workload measured; {!Perfbench} turns it into metrics. *)
type outcome = {
  setup_s : float;  (** median of the set-up repetitions *)
  lat_ms : float list array;  (** per distinct job, its untraced latencies *)
  round_s : float list;  (** timed seconds of each untraced round *)
  jobs : int;  (** untraced jobs *)
  dyn : int * int * int;  (** ops, loads, stores over the distinct jobs *)
  run_ms : float option;  (** grids: per distinct job, its median execution time, summed *)
  code_instrs : int;  (** post-pipeline IR instructions over the distinct jobs *)
  peak_rss_mb : float;
  digest : string;  (** of the inputs *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  notes : (string * Json.t) list;  (** extra facts for the run record *)
}

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

(** A fresh, empty directory. *)
let fresh_dir d =
  rm_rf d;
  mkdir_p d;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

(** Peak resident set of a process in MB ([VmHWM] of /proc/PID/status). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float kb /. 1024.
        | exception _ -> acc)
      0.
      (String.split_on_char '\n' s)

(** Lower this process's peak resident set to its current size (Linux
    [clear_refs] 5), so that a later [peak_rss_mb "self"] reads the peak
    of what follows, not of the set-up before it. *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few reasons, newest first *)
}

let acc () = { attempted = 0; failed = 0; failures = [] }

let note acc msg =
  if List.length acc.failures < 12 then acc.failures <- msg :: acc.failures

(** Account one job: it fails if any check produced a reason. *)
let job acc (errors : string list) =
  acc.attempted <- acc.attempted + 1;
  match errors with
  | [] -> ()
  | e :: _ ->
    acc.failed <- acc.failed + 1;
    note acc e

(** A failure outside any one job (drift, quarantine): counted once. *)
let fail acc msg =
  acc.failed <- acc.failed + 1;
  note acc msg

let expect what ~got ~want =
  if got = want then [] else [ Printf.sprintf "%s: got %d, want %d" what got want ]

(** Check an execution's observable result against a reference:
    [(checksum, ops, loads, stores)], with [None] for a count the
    reference does not pin. *)
let check_result name (r : Interp.result) ~checksum ?counts () =
  let t = r.Interp.total in
  expect (name ^ " checksum") ~got:r.Interp.checksum ~want:checksum
  @
  match counts with
  | None -> []
  | Some (ops, loads, stores) ->
    expect (name ^ " ops") ~got:t.Interp.ops ~want:ops
    @ expect (name ^ " loads") ~got:t.Interp.loads ~want:loads
    @ expect (name ^ " stores") ~got:t.Interp.stores ~want:stores

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(** Call [round ()] until the seconds it reports timing add up to
    [seconds]; whole rounds only, at least one, so every run measures the
    same multiset of jobs a whole number of times.  Returns each round's
    seconds, in order. *)
let rounds ~seconds round =
  let rec go acc t =
    if acc <> [] && t >= seconds then List.rev acc
    else
      let s = round () in
      go (s :: acc) (t +. s)
  in
  go [] 0.

let sum = List.fold_left ( +. ) 0.

(** Tracing overhead from the round times of the untraced and traced
    phases (every round holds the same jobs): 100 × (1 − traced /
    untraced throughput). *)
let overhead_pct ~untraced ~traced =
  let rate l = float (List.length l) /. sum l in
  100. *. (1. -. (rate traced /. rate untraced))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(** Linear-interpolated quantile of a sorted array ([nan] if empty). *)
let quantile q (a : float array) =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))
  end

let median l = quantile 0.5 (sorted l)

(** Set-up passes per run; [setup_s] is their median. *)
let setup_reps = 5

(** The median of [reps] timed calls of [f], in seconds. *)
let median_time reps f =
  median
    (List.init reps (fun i ->
         let t0 = now () in
         f i;
         now () -. t0))

(* ------------------------------------------------------------------ *)
(* Compile, layer by layer                                             *)
(* ------------------------------------------------------------------ *)

(** Per-cell regalloc milliseconds of the traced run, for the slowest-cell
    metric. *)
let regalloc_ms : (string, float list) Hashtbl.t = Hashtbl.create 128

let count_stats ~cell (s : Pipeline.stage_stats) =
  let c name v = Trace.count name (float v) in
  c "analysis.iters" s.analysis_iters;
  c "analysis.nonconverged" (if s.converged then 0 else 1);
  c "core.promotion.promoted" s.promoted;
  c "core.promotion.throttled" s.throttled;
  c "core.ptr_promotion.groups" s.ptr_promoted;
  c "opt.hoisted" s.hoisted;
  c "opt.vn_rewrites" s.vn_rewrites;
  c "opt.pre_removed" s.pre_removed;
  c "opt.folded" s.folded;
  c "opt.dce_removed" s.dce_removed;
  c "regalloc.spilled" s.spilled;
  c "regalloc.coalesced" s.coalesced;
  c "pipeline.degraded" (List.length s.degraded);
  let ra =
    List.fold_left
      (fun acc (n, t) -> if n = "regalloc" then acc +. (1000. *. t) else acc)
      0. s.timings
  in
  Hashtbl.replace regalloc_ms cell
    (ra :: Option.value ~default:[] (Hashtbl.find_opt regalloc_ms cell))

(** [Pipeline.compile].  Traced, the same work is done as the individual
    layer calls — parse, typecheck, irgen, optimize — each under its own
    span, with the optimizer's per-pass times laid out as child spans;
    [front] then sees the lowered program before it is optimized. *)
let compile ?(front = ignore) ~cell ~config src =
  if not !Trace.enabled then Pipeline.compile ~config src
  else
    Trace.span "pipeline.compile" (fun () ->
        let ast =
          Trace.span "minic.parse" (fun () -> Rp_minic.Parser.parse_program src)
        in
        let tast =
          Trace.span "minic.typecheck" (fun () ->
              Rp_minic.Typecheck.check_program ast)
        in
        let p = Trace.span "irgen" (fun () -> Rp_irgen.Irgen.gen_program tast) in
        Trace.count "irgen.ir_instrs" (float (Rp_ir.Program.size p));
        front p;
        let s =
          Trace.span "pipeline.optimize" (fun () ->
              let t0 = Trace.now () in
              let s = Pipeline.optimize ~config p in
              Trace.synthesize ~t0 s.Pipeline.timings;
              s)
        in
        count_stats ~cell s;
        (p, s))

(** [Interp.run], with the precompile step split out under its own span
    when traced ([Precomp.get] fills the cache [Interp.run] then hits). *)
let interp p =
  if !Trace.enabled then
    ignore (Trace.span "exec.precomp" (fun () -> Rp_exec.Precomp.get p) : Rp_exec.Precomp.dprog);
  let r = Trace.span "exec.interp" (fun () -> Interp.run p) in
  Trace.count "exec.interp.ops" (float r.Interp.total.Interp.ops);
  r

(** The traced run's rerun of an executed program with the tag checks
    off; {!layer_metrics} charges the difference to [check_tags]. *)
let interp_nocheck p = ignore (Interp.run ~check_tags:false p : Interp.result)

(* ------------------------------------------------------------------ *)
(* Determinism guard                                                   *)
(* ------------------------------------------------------------------ *)

(** Counts that must repeat exactly across every run of the same code on
    the same inputs.  The first run of an executable records them under
    the workload and input digest; any later run of that executable that
    reads different values reports the drift as a failure. *)
let determinism_guard acc ctx ~digest (values : (string * int) list) =
  let dir = Filename.concat ctx.state "determinism" in
  mkdir_p dir;
  let file = Filename.concat dir (Printf.sprintf "%s-%s.json" ctx.workload digest) in
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let doc =
    Json.Obj
      [
        ("exe", Json.Str exe);
        ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) values));
      ]
  in
  let previous =
    match Json.of_file file with
    | exception _ -> None
    | prev when Json.member "exe" prev = Some (Json.Str exe) -> Json.member "values" prev
    | _ -> None
  in
  match previous with
  | Some prev ->
    List.iter
      (fun (k, v) ->
        match Json.member k prev with
        | Some (Json.Int v') when v' = v -> ()
        | _ -> fail acc (Printf.sprintf "determinism: %s drifted to %d" k v))
      values
  | None -> Json.to_file file doc

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let opt_passes = [ "clean"; "valnum"; "constprop"; "copyprop"; "licm"; "pre"; "dce"; "dse" ]

(** Every per-layer metric, from the traced phase's spans and counters.
    Times and counts are per round (one pass over the workload's
    schedule); [extra] supplies the workload-computed values and
    overrides a default of 0. *)
let layer_metrics ~rounds ~(extra : (string * float) list) =
  let self = Trace.self_ms () in
  let r = float rounds in
  let s n = Option.value ~default:0. (Hashtbl.find_opt self n) /. r in
  let c n = Trace.counter n /. r in
  let ratio a b =
    let d = Trace.counter b in
    if d = 0. then 0. else Trace.counter a /. d
  in
  let interp_ms = s "exec.interp" in
  let regalloc_max =
    Hashtbl.fold (fun _ l acc -> Float.max acc (median l)) regalloc_ms 0.
  in
  let base =
    [
      ("minic.parse.busy_ms", s "minic.parse");
      ("minic.typecheck.busy_ms", s "minic.typecheck");
      ("irgen.busy_ms", s "irgen");
      ("irgen.ir_instrs", c "irgen.ir_instrs");
      ("analysis.busy_ms", s "analysis");
      ("analysis.iters", c "analysis.iters");
      ("analysis.nonconverged", c "analysis.nonconverged");
      ("core.promotion.busy_ms", s "promotion");
      ("core.promotion.promoted", c "core.promotion.promoted");
      ("core.promotion.throttled", c "core.promotion.throttled");
      ("core.ptr_promotion.busy_ms", s "ptr_promotion");
      ("core.ptr_promotion.groups", c "core.ptr_promotion.groups");
      ("opt.busy_ms", List.fold_left (fun acc p -> acc +. s p) 0. opt_passes);
    ]
    @ List.map (fun p -> ("opt." ^ p ^ ".busy_ms", s p)) opt_passes
    @ [
        ("opt.hoisted", c "opt.hoisted");
        ("opt.vn_rewrites", c "opt.vn_rewrites");
        ("opt.pre_removed", c "opt.pre_removed");
        ("opt.folded", c "opt.folded");
        ("opt.dce_removed", c "opt.dce_removed");
        ("regalloc.busy_ms", s "regalloc");
        ("regalloc.busy_ms_max", regalloc_max);
        ("regalloc.spilled", c "regalloc.spilled");
        ("regalloc.coalesced", c "regalloc.coalesced");
        ("pipeline.compile.busy_ms", Trace.total_ms "pipeline.compile" /. r);
        ("pipeline.guard_ms", s "pipeline.optimize");
        ("pipeline.validate.busy_ms", s "validate");
        ("pipeline.degraded", c "pipeline.degraded");
        ("exec.precomp.busy_ms", s "exec.precomp");
        ("exec.interp.busy_ms", interp_ms);
        ( "exec.interp.ops_per_us",
          if interp_ms = 0. then 0. else c "exec.interp.ops" /. (1000. *. interp_ms) );
        ( "exec.interp.check_tags_ms",
          let nocheck = Trace.total_ms "exec.interp.nocheck" in
          if nocheck = 0. then 0. else (Trace.total_ms "exec.interp" -. nocheck) /. r );
        ("backend.cgen.busy_ms", s "backend.cgen");
        ("backend.cgen.c_bytes", c "backend.cgen.c_bytes");
        ("backend.cc.busy_ms", 0.);
        ("backend.native.cache_hit_frac", ratio "backend.native.hits" "backend.native.jobs");
        ("backend.native.exec_wall_ms", c "backend.native.exec_wall_ms");
        ("backend.native.self_ms", c "backend.native.self_ms");
        ("backend.native.harness_ms", c "backend.native.harness_ms");
        ("backend.native.degraded", c "backend.native.degraded");
        ("cas.get.busy_ms", s "cas.get");
        ("cas.put.busy_ms", s "cas.put");
        ("cas.hit_frac", ratio "cas.hits" "cas.gets");
        ("cas.puts", c "cas.puts");
        ("cas.quarantined", c "cas.quarantined");
        ("journal.record.busy_ms", s "journal.record");
        ("serve.client.call_ms", s "serve.client.call");
        ("serve.protocol.encode_ms", s "serve.protocol.encode");
        ("serve.protocol.decode_ms", s "serve.protocol.decode");
        ("serve.daemon.overhead_ms", 0.);
        ("serve.errors", c "serve.errors");
        ("serve.overloaded", c "serve.overloaded");
        ("serve.rejected", c "serve.rejected");
        ("trace.spans", float (Trace.span_count ()) /. r);
      ]
  in
  List.map
    (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k extra)))
    base
  @ List.filter (fun (k, _) -> not (List.mem_assoc k base)) extra
