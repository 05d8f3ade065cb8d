(** Fixed-size Domain worker pool with deterministic, index-ordered
    collection, and a supervised variant with per-job deadlines, bounded
    retries, and worker respawn, which {!run_journaled} makes
    crash-resumable.  See {!run}, {!run_supervised} and {!run_journaled}. *)

type 'a outcome = ('a, exn) result

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the natural default for a
    [--jobs] flag. *)

val run :
  jobs:int ->
  ?on_result:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** [run ~jobs f inputs] maps [f] over [inputs] on up to [jobs] domains
    (clamped to [1 .. Array.length inputs]; the calling domain is one of
    them) and returns outcomes in input order.  A job that raises yields
    [Error exn] in its slot; the other jobs still run.  The result array
    is identical for every [jobs] value.  Jobs must not print or share
    mutable non-atomic state.

    [on_result i o] fires on the domain that finished job [i], as soon as
    it finishes — out of index order.  It must be thread-safe and must not
    raise; campaign drivers use it to journal completions incrementally.

    All spawned domains are joined even if the calling domain's share of
    the work — or [on_result] — raises: no domain leaks on exception
    paths. *)

val run_exn : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [run] plus fail-fast collection: re-raises the first captured
    exception in index order — the same exception a sequential loop would
    have raised first. *)

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                *)
(* ------------------------------------------------------------------ *)

(** Why a supervised job was given up on, after its retry budget:
    [attempts] is the total number of attempts made. *)
type job_failure =
  | Timed_out of { elapsed : float; attempts : int }
      (** every attempt exceeded the per-job deadline *)
  | Crashed of { reason : string; attempts : int }
      (** every attempt raised ([reason] is the last exception), or the
          run was cancelled before the job finished
          ([reason = "cancelled"], [attempts] = attempts started) *)

type 'a supervised = ('a, job_failure) result

val pp_job_failure : Format.formatter -> job_failure -> unit

val run_supervised :
  jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?grace:float ->
  ?poll:float ->
  ?cancel:(unit -> bool) ->
  ?resilience:Resilience.t ->
  ?on_result:(int -> 'b supervised -> unit) ->
  (should_stop:(unit -> bool) -> 'a -> 'b) ->
  'a array ->
  'b supervised array
(** [run_supervised ~jobs f inputs] is {!run} under supervision.  Unlike
    {!run}, the calling domain does not execute jobs: it spawns [jobs]
    worker domains and supervises them.

    {b Deadlines.}  Each job attempt receives a [should_stop] closure that
    turns [true] once the attempt has run for [timeout] seconds (or the
    run is cancelled); cooperative workloads — anything built on the
    interpreter's [?should_stop] polling — abort promptly and the attempt
    counts as timed out.  No [timeout] means no deadline.

    {b Supervision.}  A worker that has overrun [timeout + grace] without
    polling [should_stop] (a wedged compile, a non-cooperative loop) is
    declared dead: its job is taken away, the worker domain is abandoned
    (left to finish into the void — OCaml domains cannot be killed; its
    late result is discarded by a claim check) and a replacement worker is
    spawned so throughput recovers.  [grace] defaults to 1 s.

    {b Retries.}  A failed attempt (timeout or exception) is re-queued up
    to [retries] extra times (default 1), then the job is quarantined as
    [Error (Timed_out _ | Crashed _)].  Failure events tick [resilience]
    (timeouts, retries, crashes, quarantines) when given.

    {b Cancellation.}  When [cancel ()] turns true, workers stop taking
    jobs, in-flight attempts are asked to stop, and every unfinished job
    resolves to [Error (Crashed { reason = "cancelled"; _ })] without
    firing [on_result] — callers flush their journal and exit; completed
    work is already recorded.

    {b Determinism.}  Completed jobs ([Ok _] slots) carry exactly the
    value a sequential run would have produced: retrying a deterministic
    job cannot change its result, and collection is by index, so the
    [Ok] portion of the result array is byte-identical at any [jobs]
    value.  Only {e whether} a job times out depends on the wall clock.

    [on_result i o] fires on the resolving domain as soon as job [i]
    resolves (completes, or exhausts its retries) — not on cancellation.
    All live (non-abandoned) workers are joined before returning, even if
    supervision raises. *)

val run_journaled :
  jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?cancel:(unit -> bool) ->
  ?resilience:Resilience.t ->
  ?journal:string ->
  ?resume:string ->
  key:('a -> 'k) ->
  encode:('a -> 'b -> Json.t option) ->
  decode:(Json.t -> ('k * 'b) option) ->
  (should_stop:(unit -> bool) -> 'a -> 'b) ->
  'a array ->
  'b supervised array
(** A crash-resumable campaign: {!run_supervised} behind a {!Journal}.

    [resume] names a previous run's journal: every record [decode]s to
    an item key and its finished value, and each input whose [key] was
    replayed takes that value without running (the first record for a
    key wins; records matching no input are ignored) and ticks
    [Resumed].  The remaining inputs run supervised; each one that
    completes is appended to [journal] as [encode input value] (skipped
    when [None]) before the campaign moves on.

    Results come back in input order, replayed and fresh merged, so a
    resumed campaign folds exactly as an uninterrupted one.  On
    cancellation unfinished inputs are [Error (Crashed {reason =
    "cancelled"; _})], as in {!run_supervised}. *)
