(** The command-line surface shared by [rpcc] and the bench harness.

    Both executables are cmdliner programs: the flags they have in
    common are defined once here, numeric arguments are validated by
    converters (an invalid value is a command-line error, never silently
    clamped), and {!eval} maps every command-line error to exit code 2,
    the repo-wide usage-error code. *)

open Cmdliner

val jobs : int Arg.conv
(** Worker-domain count: [0] means the machine's recommended domain
    count ({!Pool.recommended_jobs}); positive values pass through;
    negative values are rejected ([must be >= 0 (0 = auto)]). *)

val positive : int Arg.conv
(** A strictly positive integer (queue bounds, thresholds, shard
    counts); values [< 1] are rejected ([must be >= 1]). *)

(** {2 Shared flags}

    The campaign flags of [rpcc fuzz]/[gen-fuzz]/[serve]/[fleet] and
    [bench --json].  A job is one unit of a campaign: a trial, a daemon
    request, a grid cell. *)

val jobs_t : int Term.t
(** [-j N] / [--jobs N] (default 1), through {!jobs}. *)

val job_timeout_t : float option Term.t
(** [--job-timeout SECONDS] (default: no deadline). *)

val retries_t : int Term.t
(** [--retries N] (default 1): extra attempts before quarantine. *)

val journal_t : string option Term.t
(** [--journal FILE]: one fsynced record per finished job. *)

val resume_t : string option Term.t
(** [--resume FILE]: replay a journal's finished jobs. *)

val verify_passes_t : bool Term.t
(** [--verify-passes]: translation validation after every pass. *)

val eval : unit Cmd.t -> int
(** Evaluate a command and return its exit code: 0 when it ran (or
    printed help/version), 2 on a command-line error (cmdliner has
    printed the error and a usage line on stderr) or an uncaught
    exception. *)
