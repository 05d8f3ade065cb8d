(** The native runner: cc invocation, binary cache, trailer decoding.

    Failure discipline: everything that is not a faithful program outcome
    raises {!Error}.  In particular the runner re-verifies what it can —
    the captured stdout length against the trailer's [outlen], and the
    FNV-1a checksum recomputed over the captured bytes against the
    trailer's compiled-in checksum — so a binary that died mid-write, a
    truncated trailer, or a corrupted cache entry quarantines instead of
    producing a subtly wrong result. *)

open Rp_exec

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type cc = { path : string; flags : string list; identity : string }

let read_first_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (input_line ic) with End_of_file -> None in
    let status = Unix.close_process_in ic in
    match (status, line) with
    | Unix.WEXITED 0, Some l when String.trim l <> "" -> Some (String.trim l)
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

(* One probe per compiler path per process: the identity line cannot
   change under us without the executable changing, and the probe is a
   fork+exec a warm bench campaign would otherwise pay on every
   invocation.  Negative results memoize too — a missing cc stays
   missing for the life of the process. *)
let cc_memo : (string, string option) Hashtbl.t = Hashtbl.create 4
let cc_memo_lock = Mutex.create ()

let resolve_in_path p =
  if String.contains p '/' then if Sys.file_exists p then Some p else None
  else
    match Sys.getenv_opt "PATH" with
    | None -> None
    | Some path ->
      List.find_map
        (fun dir ->
          if dir = "" then None
          else
            let cand = Filename.concat dir p in
            if Sys.file_exists cand then Some cand else None)
        (String.split_on_char ':' path)

let probe_identity path =
  read_first_line (Filename.quote path ^ " --version 2>/dev/null")

(* The CAS rung makes the probe survive the process: the identity is
   cached keyed on the resolved executable's (path, size, mtime), so an
   all-warm-cache campaign in a fresh process spawns no compiler at all
   — the identity is needed to form binary cache keys {e before} any
   binary lookup can hit. *)
let identity_of ?cache path =
  Mutex.lock cc_memo_lock;
  let memo = Hashtbl.find_opt cc_memo path in
  Mutex.unlock cc_memo_lock;
  match memo with
  | Some id -> id
  | None ->
    let id =
      match (cache, resolve_in_path path) with
      | Some cas, Some resolved -> (
        match Unix.stat resolved with
        | exception Unix.Unix_error _ -> probe_identity path
        | st -> (
          let k =
            Rp_support.Cas.key
              [
                "cc-identity";
                resolved;
                string_of_int st.Unix.st_size;
                Printf.sprintf "%.6f" st.Unix.st_mtime;
              ]
          in
          match Rp_support.Cas.get cas ~key:k ~kind:"cc-id" with
          | Some id -> Some id
          | None -> (
            match probe_identity path with
            | Some id ->
              Rp_support.Cas.put cas ~key:k ~kind:"cc-id" id;
              Some id
            | None -> None)))
      | _ -> probe_identity path
    in
    Mutex.lock cc_memo_lock;
    Hashtbl.replace cc_memo path id;
    Mutex.unlock cc_memo_lock;
    id

let find_cc ?cache ?(path = "cc") ?(flags = [ "-O1" ]) () =
  match identity_of ?cache path with
  | Some identity -> Some { path; flags; identity }
  | None -> None

let default_cache_dir () =
  Filename.concat (Filename.get_temp_dir_name ()) "rpcc-native-cas"

(* ------------------------------------------------------------------ *)
(* Trailer                                                             *)
(* ------------------------------------------------------------------ *)

type trailer = {
  status : [ `Ok | `Trap | `Limit | `Invalid ];
  msg : string;
  ret : Value.t;
  checksum : int;
  ops : int;
  loads : int;
  stores : int;
  outlen : int;
  elapsed_ns : int;
  funcs : (string * Interp.counts) list;
}

let magic = "rpcc-native/1"

let parse_trailer (s : string) : trailer =
  let fail fmt = Printf.ksprintf (fun m -> error "native trailer: %s" m) fmt in
  let int_of x =
    match int_of_string_opt x with
    | Some n -> n
    | None -> fail "bad integer %S" x
  in
  let lines = String.split_on_char '\n' s in
  let status = ref None
  and msg = ref ""
  and ret = ref None
  and checksum = ref None
  and ops = ref None
  and loads = ref None
  and stores = ref None
  and outlen = ref None
  and elapsed = ref None
  and funcs = ref []
  and ended = ref false in
  let rest_after line prefix =
    String.sub line (String.length prefix)
      (String.length line - String.length prefix)
  in
  let parse_line line =
    match String.split_on_char ' ' line with
    | [ "status"; ("ok" | "trap" | "limit" | "invalid") as st ] ->
      status :=
        Some
          (match st with
          | "ok" -> `Ok
          | "trap" -> `Trap
          | "limit" -> `Limit
          | _ -> `Invalid)
    | "msg" :: _ -> msg := rest_after line "msg "
    | [ "ret"; "undef" ] -> ret := Some Value.Vundef
    | [ "ret"; "int"; n ] -> ret := Some (Value.Vint (int_of n))
    | [ "ret"; "flt"; h ] ->
      let bits =
        try Int64.of_string ("0x" ^ h)
        with Failure _ -> fail "bad float bits %S" h
      in
      ret := Some (Value.Vflt (Int64.float_of_bits bits))
    | [ "ret"; "ptr"; b; o ] ->
      ret := Some (Value.Vptr (int_of b, int_of o))
    | "ret" :: "fun" :: _ -> ret := Some (Value.Vfun (rest_after line "ret fun "))
    | [ "checksum"; n ] -> checksum := Some (int_of n)
    | [ "ops"; n ] -> ops := Some (int_of n)
    | [ "loads"; n ] -> loads := Some (int_of n)
    | [ "stores"; n ] -> stores := Some (int_of n)
    | [ "outlen"; n ] -> outlen := Some (int_of n)
    | [ "elapsed_ns"; n ] -> elapsed := Some (int_of n)
    | "func" :: o :: l :: st :: name_words ->
      let name = String.concat " " name_words in
      funcs :=
        ( name,
          { Interp.ops = int_of o; loads = int_of l; stores = int_of st } )
        :: !funcs
    | _ -> fail "unrecognized line %S" line
  in
  (match lines with
  | m :: rest when m = magic ->
    let rec go = function
      | [] -> ()
      | "end" :: _ -> ended := true
      | line :: tl ->
        parse_line line;
        go tl
    in
    go rest
  | m :: _ -> fail "bad magic %S" m
  | [] -> fail "empty");
  if not !ended then fail "missing end marker (truncated)";
  let req name = function Some v -> v | None -> fail "missing %s" name in
  let status = req "status" !status in
  let ret =
    match (status, !ret) with
    | `Ok, Some r -> r
    | `Ok, None -> fail "missing ret"
    | _, _ -> Value.Vundef
  in
  {
    status;
    msg = !msg;
    ret;
    checksum = req "checksum" !checksum;
    ops = req "ops" !ops;
    loads = req "loads" !loads;
    stores = req "stores" !stores;
    outlen = req "outlen" !outlen;
    elapsed_ns = req "elapsed_ns" !elapsed;
    funcs = List.rev !funcs;
  }

(* ------------------------------------------------------------------ *)
(* Compile                                                             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* O_CLOEXEC matters: another domain's concurrent fork (a cc invocation,
   a sibling binary) must not inherit a write fd to a file this domain is
   about to exec, or the exec fails with ETXTBSY. *)
let write_file path s =
  let fd =
    Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.unsafe_of_string s in
      let n = Bytes.length b in
      let rec go off =
        if off < n then go (off + Unix.write fd b off (n - off))
      in
      go 0)

(* The compiler subprocess is sandboxed: a wedged or runaway cc must
   degrade this one cell, never take the harness down with it.  OCaml's
   Unix has no setrlimit, so the rlimits — 60 s CPU, 4 GiB address
   space, 512 MiB output (in 512-byte blocks) — ride a
   [/bin/sh -c "ulimit ...; exec cc ..."] wrapper ([exec] keeps the
   limited pid the compiler itself), and the wall-clock deadline is
   enforced by the harness with a WNOHANG poll + SIGKILL. *)
let cc_wall_s = 120.

(* fork can transiently fail under pressure (EAGAIN) or race a sibling's
   inherited fd (ETXTBSY on the shell, EUNKNOWNERR 26); absorb a bounded
   burst through the shared backoff machinery rather than quarantining
   the cell on the first hiccup *)
let cc_spawn_retry =
  {
    Rp_support.Retry.max_attempts = 5;
    base_delay = 0.01;
    max_delay = 0.2;
    jitter = 0.25;
  }

let truncate_err err =
  let err = String.trim err in
  if String.length err > 800 then String.sub err 0 800 ^ "..." else err

let cc_compile ~cc csrc =
  let cfile = Filename.temp_file "rpcc_native" ".c" in
  let bin = Filename.temp_file "rpcc_native" ".bin" in
  let errf = Filename.temp_file "rpcc_cc" ".err" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove cfile with Sys_error _ -> ());
      try Sys.remove errf with Sys_error _ -> ())
    (fun () ->
      write_file cfile csrc;
      let cmd =
        Printf.sprintf
          "ulimit -t 60 2>/dev/null; ulimit -v 4194304 2>/dev/null; ulimit -f \
           1048576 2>/dev/null; exec %s %s -o %s %s -lm 2>%s"
          (Filename.quote cc.path)
          (String.concat " " (List.map Filename.quote cc.flags))
          (Filename.quote bin) (Filename.quote cfile) (Filename.quote errf)
      in
      let pid =
        match
          Rp_support.Retry.with_backoff ~policy:cc_spawn_retry (fun () ->
              Unix.create_process "/bin/sh"
                [| "/bin/sh"; "-c"; cmd |]
                Unix.stdin Unix.stdout Unix.stderr)
        with
        | Ok pid -> pid
        | Error (Unix.Unix_error (e, _, _)) ->
          error "cc spawn failed: %s" (Unix.error_message e)
        | Error e -> error "cc spawn failed: %s" (Printexc.to_string e)
      in
      let deadline = Rp_support.Clock.now () +. cc_wall_s in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Rp_support.Clock.now () > deadline then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            (try Sys.remove bin with Sys_error _ -> ());
            error "cc sandbox: wall-clock deadline (%.0fs) exceeded" cc_wall_s
          end
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
        | _, st -> st
      in
      let st = try wait () with Unix.Unix_error (Unix.EINTR, _, _) -> wait () in
      (match st with
      | Unix.WEXITED 0 -> ()
      | st ->
        let err = truncate_err (try read_file errf with Sys_error _ -> "") in
        (try Sys.remove bin with Sys_error _ -> ());
        (match st with
        | Unix.WEXITED n -> error "cc failed (exit %d): %s" n err
        | Unix.WSIGNALED n ->
          error "cc killed by signal %d (sandbox rlimit?): %s" n err
        | Unix.WSTOPPED n -> error "cc stopped by signal %d: %s" n err));
      Unix.chmod bin 0o700;
      bin)

(* Binaries are keyed by what cc actually sees — the emitted C, the
   compiler identity and its flags — so every program × configuration
   cell that emits the same C shares one binary. *)
let bin_key ~cc csrc =
  Rp_support.Cas.key
    [ Cgen.version; csrc; cc.identity; String.concat " " cc.flags ]

(* Binary keys some domain of this process is looking up or compiling.
   A second domain asking for the same key waits for the first to finish
   and then reads the store, so concurrent jobs on one C program run cc
   once. *)
let inflight : (string, unit) Hashtbl.t = Hashtbl.create 16
let inflight_lock = Mutex.create ()
let inflight_done = Condition.create ()

let exclusively key f =
  Mutex.lock inflight_lock;
  while Hashtbl.mem inflight key do
    Condition.wait inflight_done inflight_lock
  done;
  Hashtbl.replace inflight key ();
  Mutex.unlock inflight_lock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock inflight_lock;
      Hashtbl.remove inflight key;
      Condition.broadcast inflight_done;
      Mutex.unlock inflight_lock)

(* Reads the cache unless [fresh] (a CRC-valid but behaviourally bad
   entry would just be refetched, so a recompile neither waits nor
   reads); a compile always writes through, repairing the entry for
   every later job on this key. *)
let compile_c ?cache ~fresh ~cc csrc =
  let compile store =
    let bin = cc_compile ~cc csrc in
    Option.iter
      (fun (cas, key) ->
        Rp_support.Cas.put cas ~key ~kind:"native-bin" (read_file bin))
      store;
    (bin, false)
  in
  match cache with
  | None -> compile None
  | Some cas when fresh -> compile (Some (cas, bin_key ~cc csrc))
  | Some cas ->
    let key = bin_key ~cc csrc in
    exclusively key (fun () ->
        match Rp_support.Cas.get cas ~key ~kind:"native-bin" with
        | Some bytes ->
          let bin = Filename.temp_file "rpcc_native" ".bin" in
          write_file bin bytes;
          Unix.chmod bin 0o700;
          (bin, true)
        | None -> compile (Some (cas, key)))

let compile ?cache ~cc prog = compile_c ?cache ~fresh:false ~cc (Cgen.emit prog)

(* ------------------------------------------------------------------ *)
(* Execute                                                             *)
(* ------------------------------------------------------------------ *)

let fnv_byte cs b = (cs lxor b) * 16777619 land 0x3FFFFFFFFFFFFFF

let checksum_of_string s =
  String.fold_left (fun cs c -> fnv_byte cs (Char.code c)) 0x1505 s

(* Returns the result plus the binary's self-timed [main] duration in ms
   (from the trailer's [elapsed_ns]) — the native analogue of interpreter
   run time, excluding fork/exec/loader overhead the harness pays.  The
   trailer's counts are read only under [status ok]: after a trap, a
   limit or an invalid stop the emitted code may have counted ahead by
   part of one straight-line segment (see {!Cgen}), and the raised
   exception carries only the message. *)
let exec ?(fuel = 400_000_000) ?(max_depth = 100_000) ?deadline bin :
    Interp.result * float =
  let trailer_path = Filename.temp_file "rpcc_trailer" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      try Sys.remove trailer_path with Sys_error _ -> ())
    (fun () ->
      let budget = match deadline with Some d -> d | None -> 0.0 in
      (* the binary raises its own stack limit (deep recursion runs on
         the C stack), so no shell wrapper: exec it directly.  Seed and
         tag checks are the interpreter's defaults (12345, on). *)
      let argv =
        [|
          bin;
          trailer_path;
          string_of_int fuel;
          string_of_int max_depth;
          "12345";
          "1";
          Printf.sprintf "%.6f" budget;
        |]
      in
      (* cloexec on both ends: a concurrent fork in another domain must
         not inherit [w_out], or this pipe never sees EOF until that
         unrelated child exits ([create_process] dup2s [w_out] to the
         child's stdout, which clears the flag there) *)
      let r_out, w_out = Unix.pipe ~cloexec:true () in
      let pid =
        (* ETXTBSY (EUNKNOWNERR 26 — OCaml's Unix.error has no
           constructor for it) is the one transient worth absorbing
           here: a fork racing this exec (another domain spawning cc)
           can briefly hold an inherited write fd to [bin]; retry
           briefly rather than quarantine.  Any other exec failure (a
           cached payload the kernel will not load) is infrastructure:
           close the pipe and let the ladder recompile. *)
        let rec spawn attempts =
          match Unix.create_process bin argv Unix.stdin w_out Unix.stderr with
          | pid -> pid
          | exception Unix.Unix_error (Unix.EUNKNOWNERR 26, _, _)
            when attempts > 0 ->
            Unix.sleepf 0.01;
            spawn (attempts - 1)
          | exception Unix.Unix_error (e, _, _) ->
            Unix.close r_out;
            Unix.close w_out;
            error "native binary exec failed: %s" (Unix.error_message e)
        in
        spawn 100
      in
      Unix.close w_out;
      let out = Buffer.create 4096 in
      let ic = Unix.in_channel_of_descr r_out in
      let chunk = Bytes.create 65536 in
      let rec drain () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes out chunk 0 n;
          drain ()
        end
      in
      (try drain () with End_of_file -> ());
      close_in_noerr ic;
      let _, st = Unix.waitpid [] pid in
      (match st with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> error "native binary exited with status %d" n
      | Unix.WSIGNALED n -> error "native binary killed by signal %d" n
      | Unix.WSTOPPED n -> error "native binary stopped by signal %d" n);
      let output = Buffer.contents out in
      let t =
        parse_trailer
          (try read_file trailer_path
           with Sys_error e -> error "native trailer unreadable: %s" e)
      in
      if t.outlen <> String.length output then
        error "native output truncated: trailer says %d bytes, captured %d"
          t.outlen (String.length output);
      match t.status with
      | `Trap -> raise (Interp.Error t.msg)
      | `Limit -> raise (Interp.Resource_limit t.msg)
      | `Invalid -> raise (Invalid_argument t.msg)
      | `Ok ->
        if checksum_of_string output <> t.checksum then
          error
            "native checksum mismatch: trailer %d vs %d recomputed over \
             captured output"
            t.checksum
            (checksum_of_string output);
        let total =
          { Interp.ops = t.ops; loads = t.loads; stores = t.stores }
        in
        let per_func =
          t.funcs
          |> List.filter (fun (_, (c : Interp.counts)) -> c.Interp.ops <> 0)
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        ( { Interp.ret = t.ret; output; checksum = t.checksum; total; per_func },
          float_of_int t.elapsed_ns /. 1e6 ))

(* ------------------------------------------------------------------ *)
(* Attempts and the degradation ladder                                 *)
(* ------------------------------------------------------------------ *)

type laddered = {
  l_result : Interp.result;
  l_mode : [ `Native | `Interp ];
  l_degraded : string option;
  l_cc_ms : float;
  l_exec_ms : float;
  l_cache_hit : bool;
}

(* One native attempt: emit + compile (through the cache unless
   [fresh]), exec, remove the temp binary. *)
let attempt ?fuel ?max_depth ?deadline ?cache ~fresh ~cc prog =
  let t0 = Rp_support.Clock.now () in
  let bin, cache_hit = compile_c ?cache ~fresh ~cc (Cgen.emit prog) in
  let cc_ms = 1000. *. Rp_support.Clock.elapsed t0 in
  Fun.protect
    ~finally:(fun () -> try Sys.remove bin with Sys_error _ -> ())
    (fun () ->
      let result, exec_ms = exec ?fuel ?max_depth ?deadline bin in
      {
        l_result = result;
        l_mode = `Native;
        l_degraded = None;
        l_cc_ms = cc_ms;
        l_exec_ms = exec_ms;
        l_cache_hit = cache_hit;
      })

let run ?fuel ?max_depth ?deadline ?cache ~cc prog =
  (attempt ?fuel ?max_depth ?deadline ?cache ~fresh:false ~cc prog).l_result

(* native → recompile-once (cache read bypassed, write-through) →
   interpreter.  Only {!Error} — infrastructure failure — descends a
   rung; faithful program outcomes ([Interp.Error], [Resource_limit],
   [Invalid_argument]) re-raise from whichever rung produced them,
   because every rung computes the same answer by contract.  The
   result is therefore independent of which rungs fired; only the
   telemetry ([l_mode]/[l_degraded]) and the latency differ. *)
let run_laddered ?deadline ?cache ~interp ~cc prog =
  let fallback reason =
    let result, run_ms = interp () in
    {
      l_result = result;
      l_mode = `Interp;
      l_degraded = Some reason;
      l_cc_ms = 0.;
      l_exec_ms = run_ms;
      l_cache_hit = false;
    }
  in
  match cc with
  | None -> fallback "no C compiler"
  | Some cc -> (
    try attempt ?deadline ?cache ~fresh:false ~cc prog
    with Error first -> (
      try
        {
          (attempt ?deadline ?cache ~fresh:true ~cc prog) with
          l_degraded = Some ("recompiled: " ^ first);
        }
      with Error second ->
        fallback
          (Printf.sprintf "native failed twice (%s; retry: %s)" first second)))
