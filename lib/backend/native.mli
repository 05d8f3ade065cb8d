(** Run programs at hardware speed: shell the {!Cgen} C out to the system
    compiler, execute the binary, and parse its trailer back into the
    {!Rp_exec.Interp} result type.

    Contract: for every program and every runtime parameterization, a
    native run is observably identical to an interpreted run — same
    output, checksum, total and per-function counters, and the same
    {!Rp_exec.Interp.Error} / {!Rp_exec.Interp.Resource_limit} /
    [Invalid_argument] exceptions with the same messages on erroneous or
    resource-bounded programs.  Anything that prevents the runner from
    establishing that answer — no C compiler, a compile failure, a binary
    killed by a signal, a truncated or garbled trailer, a checksum that
    does not match the captured output — raises {!Error} instead, so
    infrastructure failure is always a quarantine and never a wrong
    answer. *)

exception Error of string
(** Native-backend infrastructure failure (distinct from program traps
    and resource limits, which re-raise the interpreter's exceptions). *)

type cc = {
  path : string;  (** compiler executable *)
  flags : string list;  (** e.g. [["-O1"]] *)
  identity : string;
      (** first line of [cc --version]; part of the binary cache key so a
          toolchain upgrade invalidates cached binaries *)
}

val find_cc :
  ?cache:Rp_support.Cas.t -> ?path:string -> ?flags:string list -> unit ->
  cc option
(** Probe for a working C compiler ([cc] on PATH by default, [-O1] by
    default) and capture its identity line.  [None] when the probe
    fails — callers skip or error out, visibly, rather than guessing.

    The probe is memoized per process (positive {e and} negative), so
    repeated callers — the bench host record, gen-fuzz, a daemon serving
    thousands of native jobs — pay one fork+exec per compiler path.
    With [?cache] the identity is additionally cached in the CAS keyed
    on the resolved executable's (path, size, mtime), so a fresh process
    running an all-warm-cache campaign spawns no compiler subprocess at
    all; a toolchain upgrade changes the stat triple and re-probes. *)

val default_cache_dir : unit -> string
(** Per-user binary cache root under the system temp directory. *)

(* ---- trailer protocol (exposed for tests) ------------------------ *)

type trailer = {
  status : [ `Ok | `Trap | `Limit | `Invalid ];
  msg : string;  (** trap/limit/invalid message; [""] for [`Ok] *)
  ret : Rp_exec.Value.t;
  checksum : int;
  ops : int;
  loads : int;
  stores : int;
  outlen : int;  (** bytes the binary wrote to stdout *)
  elapsed_ns : int;
      (** the binary's self-timed [main] duration (monotonic clock, from
          entry to trailer write) *)
  funcs : (string * Rp_exec.Interp.counts) list;  (** didx order, all funcs *)
}

val parse_trailer : string -> trailer
(** Parse the fixed-format trailer ({b rpcc-native/1}).  Raises {!Error}
    on anything malformed: wrong magic, unknown status, missing fields,
    short or garbled records, a missing [end] marker.  Strictness is the
    point — a partial trailer must quarantine, not round down to a
    plausible result. *)

(* ---- compile & execute ------------------------------------------- *)

val compile : ?cache:Rp_support.Cas.t -> cc:cc -> Rp_ir.Program.t -> string * bool
(** [compile ?cache ~cc prog] emits C, compiles it, and returns
    [(binary_path, cache_hit)].  The binary lands in a fresh temp file the
    caller should remove when done.  With [?cache], compiled binaries are
    stored content-addressed under
    [Cas.key [Cgen.version; emitted C; cc identity; cc flags]]: binaries
    are keyed by the code cc sees, not by program × configuration, so
    grid cells whose configurations emit the same C share one binary.
    The compiler runs sandboxed (60 s CPU, 4 GiB address space, 512 MiB
    output, 120 s wall clock).  Raises {!Error} if cc fails. *)

val run :
  ?fuel:int ->
  ?max_depth:int ->
  ?deadline:float ->
  ?cache:Rp_support.Cas.t ->
  cc:cc ->
  Rp_ir.Program.t ->
  Rp_exec.Interp.result
(** One native attempt as a drop-in for {!Rp_exec.Interp.run}: {!compile},
    execute, clean up.  Runtime parameters default as the interpreter's
    (fuel 400M, depth 100k); the seed (12345) and tag checks (on) are
    always the interpreter's defaults.  The binary raises its own stack
    rlimit to the hard maximum at startup (deep IR recursion lives on the
    C stack; the interpreter's frames lived on the OCaml heap), with
    stdout captured as the program output and the trailer read from a
    private temp file.  [?deadline] is a wall-clock budget in seconds,
    enforced cooperatively by the emitted code's 4096-op poll exactly
    like the interpreter's [should_stop].  Raises [Interp.Error],
    [Interp.Resource_limit], or [Invalid_argument] as the interpreter
    would; {!Error} on infrastructure failure, including a binary the
    kernel will not exec. *)

(* ---- graceful degradation ---------------------------------------- *)

type laddered = {
  l_result : Rp_exec.Interp.result;
  l_mode : [ `Native | `Interp ];  (** which rung produced the answer *)
  l_degraded : string option;
      (** [Some reason] when any rung below the first fired — including
          a successful recompile that still answered natively *)
  l_cc_ms : float;  (** emit + compile, or binary-cache read on a hit *)
  l_exec_ms : float;
      (** the run time: the binary's self-timed [main] duration
          (symmetric with the interpreter's, which excludes compile —
          fork/exec/loader overhead is harness cost), or the [interp]
          thunk's own figure on the interpreter rung *)
  l_cache_hit : bool;
}

val run_laddered :
  ?deadline:float ->
  ?cache:Rp_support.Cas.t ->
  interp:(unit -> Rp_exec.Interp.result * float) ->
  cc:cc option ->
  Rp_ir.Program.t ->
  laddered
(** The graceful degradation ladder: one {!run} attempt → one fresh
    recompile that bypasses the binary cache's read side (but writes
    through, repairing a bad entry for later jobs) → the caller's
    [interp] thunk (which returns the result plus its run time in ms).
    Only {!Error} — infrastructure failure: cc missing or crashing, a
    sandbox-limit trip, a malformed trailer, a corrupt cached binary —
    descends a rung.  Faithful program outcomes ({!Rp_exec.Interp.Error},
    {!Rp_exec.Interp.Resource_limit}, [Invalid_argument]) re-raise from
    whichever rung produced them: every rung computes the same answer by
    contract, so the result is rung-independent and only the telemetry
    and latency vary.  Never raises {!Error} itself — if the interpreter
    rung also fails, that exception is the campaign's to handle. *)
