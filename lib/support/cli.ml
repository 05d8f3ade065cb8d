(** The command-line surface shared by rpcc and bench.  See cli.mli. *)

open Cmdliner

let int_conv ~check ~resolve =
  let parse s =
    match int_of_string_opt s with
    | None ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
    | Some n -> (
      match check n with Some msg -> Error (`Msg msg) | None -> Ok (resolve n))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  int_conv
    ~check:(fun n -> if n < 0 then Some "must be >= 0 (0 = auto)" else None)
    ~resolve:(fun n -> if n = 0 then Pool.recommended_jobs () else n)

let positive =
  int_conv
    ~check:(fun n -> if n < 1 then Some "must be >= 1" else None)
    ~resolve:Fun.id

let jobs_t =
  Arg.(
    value & opt jobs 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run jobs on $(docv) worker domains (0 = the machine's \
           recommended count).  Reports, documents, and exit codes are \
           identical at every $(docv).")

let job_timeout_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "job-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-job wall-clock deadline.  A job over the deadline is \
           aborted (cooperatively when it is interpreting; by abandoning \
           and replacing its worker domain when it is wedged), retried per \
           $(b,--retries), then quarantined.")

let retries_t =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts for a job that times out or crashes before it is \
           quarantined.")

let journal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append one fsynced line-JSON record per finished job to \
           $(docv), so an interrupted or killed campaign can be resumed \
           with $(b,--resume) without losing completed work.")

let resume_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Replay the finished jobs recorded in a previous campaign's \
           journal instead of re-running them, then run only the \
           remainder; the output is byte-identical to an uninterrupted \
           run.  Combine with $(b,--journal) $(docv) to keep extending the \
           same journal.")

let verify_passes_t =
  Arg.(
    value & flag
    & info [ "verify-passes" ]
        ~doc:
          "Translation validation: check the IL after every optimization \
           pass.  The compiler rolls back (and records as degraded) a pass \
           that produces ill-formed IL; the bench harness aborts on it.")

let eval cmd =
  match Cmd.eval_value cmd with
  | Ok (`Ok () | `Version | `Help) -> 0
  | Error (`Parse | `Term | `Exn) -> 2
