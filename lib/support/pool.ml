(** A fixed-size Domain worker pool for embarrassingly parallel jobs.

    [run ~jobs f inputs] applies [f] to every element of [inputs] on up to
    [jobs] domains (the calling domain always participates, so [jobs = 4]
    spawns three) and returns one outcome per input, {e in input order}.
    Work is handed out through a single atomic counter, so scheduling is
    dynamic, but collection is by index: the result array — including the
    order of captured exceptions — is bit-identical for every [jobs] value.
    That property is what lets the bench grid, the fuzz campaigns, and the
    determinism tests assert byte-identical reports at [-j1] and [-j4].

    Per-job failures are {e captured}, not propagated: a job that raises
    yields [Error exn] in its slot and the remaining jobs still run.
    Callers that want fail-fast semantics re-raise the first [Error] in
    index order, which reproduces exactly what a sequential loop would
    have reported first.

    Jobs must not print (interleaved output would break the determinism
    guarantee) and must not share mutable state; domain-local state
    ([Domain.DLS], as used by the pipeline's fault hook and the
    interpreter's precompile cache) is safe because one domain runs one
    job at a time.

    {!run_supervised} adds the supervision layer: per-job wall-clock
    deadlines delivered cooperatively through a [should_stop] closure,
    detection and replacement of wedged worker domains, bounded retries,
    and quarantine — see pool.mli for the full contract. *)

type 'a outcome = ('a, exn) result

(** The number of domains the runtime considers profitable on this host;
    the natural default for a [--jobs] flag. *)
let recommended_jobs () = Domain.recommended_domain_count ()

let run ~jobs ?(on_result = fun _ _ -> ()) (f : 'a -> 'b) (inputs : 'a array) :
    'b outcome array =
  let n = Array.length inputs in
  let results : 'b outcome array = Array.make n (Error Exit) in
  let work i =
    let o = try Ok (f inputs.(i)) with e -> Error e in
    results.(i) <- o;
    on_result i o
  in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      work i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          work i;
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* join even if the calling domain's share of the work (or the
       caller's [on_result]) raises: no worker domain may leak on an
       exception path *)
    Fun.protect ~finally:(fun () -> Array.iter Domain.join spawned) worker
  end;
  results

(** [run_exn] is [run] with fail-fast collection: the first failed job in
    {e index} order is re-raised (matching what a sequential loop over
    [inputs] would have reported first); otherwise the plain result array
    is returned. *)
let run_exn ~jobs f inputs =
  let outcomes = run ~jobs f inputs in
  Array.map (function Ok v -> v | Error e -> raise e) outcomes

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                *)
(* ------------------------------------------------------------------ *)

type job_failure =
  | Timed_out of { elapsed : float; attempts : int }
  | Crashed of { reason : string; attempts : int }

type 'a supervised = ('a, job_failure) result

let pp_job_failure ppf = function
  | Timed_out { elapsed; attempts } ->
    Format.fprintf ppf "timed out after %.1fs (%d attempt%s)" elapsed attempts
      (if attempts = 1 then "" else "s")
  | Crashed { reason; attempts } ->
    Format.fprintf ppf "crashed: %s (%d attempt%s)" reason attempts
      (if attempts = 1 then "" else "s")

(** Per-worker heartbeat slot, written by the owning worker and read by
    the supervisor.  [job = -1] means idle; [started_us] is the attempt's
    start in integer microseconds on the {!Clock} epoch. *)
type slot = {
  job : int Atomic.t;
  ticket : int Atomic.t;
  started_us : int Atomic.t;
}

let fresh_slot () =
  { job = Atomic.make (-1); ticket = Atomic.make 0; started_us = Atomic.make 0 }

let now_us () = int_of_float (Clock.now () *. 1e6)

let run_supervised ~jobs ?timeout ?(retries = 1) ?(grace = 1.0) ?(poll = 0.002)
    ?(cancel = fun () -> false) ?resilience ?(on_result = fun _ _ -> ())
    (f : should_stop:(unit -> bool) -> 'a -> 'b) (inputs : 'a array) :
    'b supervised array =
  let n = Array.length inputs in
  let results : 'b supervised array =
    Array.make n (Error (Crashed { reason = "cancelled"; attempts = 0 }))
  in
  if n = 0 then results
  else begin
    let jobs = max 1 (min jobs n) in
    let tick o =
      match resilience with Some r -> Resilience.tick r o | None -> ()
    in
    (* Job claim protocol: 0 = queued (claimable), t > 0 = attempt with
       ticket t in flight, -1 = resolved.  Whoever CASes a state to -1
       owns the final outcome; a late write from an abandoned attempt
       fails its CAS and is discarded. *)
    let jstate = Array.init n (fun _ -> Atomic.make 0) in
    let attempts = Array.make n 0 in (* failed attempts so far; under qlock *)
    let completed = Atomic.make 0 in
    let stop = Atomic.make false in
    let qlock = Mutex.create () in
    let retryq : int Queue.t = Queue.create () in
    let next = Atomic.make 0 in
    let tickets = Atomic.make 1 in
    let locked g =
      Mutex.lock qlock;
      Fun.protect ~finally:(fun () -> Mutex.unlock qlock) g
    in
    let resolve i (o : 'b supervised) =
      results.(i) <- o;
      on_result i o;
      Atomic.incr completed
    in
    (* Count this failed attempt; [Some ()] when the job earned a retry
       (and was re-queued), [None] when its budget is spent. *)
    let retry_or_give_up i t =
      let budget_left =
        locked (fun () ->
            attempts.(i) <- attempts.(i) + 1;
            attempts.(i) <= retries)
      in
      if budget_left && not (Atomic.get stop || cancel ()) then begin
        if Atomic.compare_and_set jstate.(i) t 0 then begin
          tick Resilience.Retry;
          locked (fun () -> Queue.push i retryq);
          true
        end
        else true (* someone else already re-dispatched or resolved it *)
      end
      else false
    in
    let total_attempts i = locked (fun () -> attempts.(i)) in
    let take () =
      match locked (fun () -> Queue.take_opt retryq) with
      | Some i -> Some i
      | None ->
        let i = Atomic.fetch_and_add next 1 in
        if i < n then Some i else None
    in
    let worker (slot : slot) () =
      let rec loop () =
        if Atomic.get stop || Atomic.get completed >= n then ()
        else
          match take () with
          | None ->
            (* drained the fresh queue, but failures may still be
               re-queued: idle until everything resolves *)
            Unix.sleepf poll;
            loop ()
          | Some i ->
            let t = Atomic.fetch_and_add tickets 1 in
            if Atomic.compare_and_set jstate.(i) 0 t then begin
              Atomic.set slot.ticket t;
              Atomic.set slot.started_us (now_us ());
              Atomic.set slot.job i;
              let t0 = Clock.now () in
              let timed_out = ref false in
              let should_stop () =
                Atomic.get stop || cancel ()
                || Atomic.get jstate.(i) <> t (* supervisor took the job *)
                ||
                match timeout with
                | Some tmo when Clock.elapsed t0 > tmo ->
                  timed_out := true;
                  true
                | _ -> false
              in
              let o = try Ok (f ~should_stop inputs.(i)) with e -> Error e in
              Atomic.set slot.job (-1);
              (match o with
              | Ok v ->
                if Atomic.compare_and_set jstate.(i) t (-1) then
                  resolve i (Ok v)
              | Error e ->
                let elapsed = Clock.elapsed t0 in
                let timed_out =
                  !timed_out
                  ||
                  match timeout with
                  | Some tmo -> elapsed > tmo
                  | None -> false
                in
                if Atomic.get stop || cancel () then
                  (* aborted by cancellation, not by its own deadline:
                     release the claim; the epilogue marks it cancelled *)
                  ignore (Atomic.compare_and_set jstate.(i) t 0 : bool)
                else begin
                  tick (if timed_out then Resilience.Timeout else Resilience.Crash);
                  if not (retry_or_give_up i t) then
                    if Atomic.compare_and_set jstate.(i) t (-1) then begin
                      tick Resilience.Quarantine;
                      let attempts = total_attempts i in
                      resolve i
                        (Error
                           (if timed_out then Timed_out { elapsed; attempts }
                            else
                              Crashed
                                { reason = Printexc.to_string e; attempts }))
                    end
                end);
              loop ()
            end
            else loop ()
      in
      loop ()
    in
    (* worker registry: (domain, heartbeat slot, abandoned) *)
    let workers = ref [] in
    let spawn_worker () =
      let slot = fresh_slot () in
      let d = Domain.spawn (worker slot) in
      workers := (d, slot, ref false) :: !workers
    in
    for _ = 1 to jobs do
      spawn_worker ()
    done;
    let wedge_limit = Option.map (fun tmo -> tmo +. grace) timeout in
    (* One supervision sweep: declare dead any worker whose current
       attempt has overrun deadline+grace without stopping, take its job
       away (retry or quarantine), and spawn a replacement. *)
    let sweep lim =
      List.iter
        (fun (_, (slot : slot), abandoned) ->
          if not !abandoned then begin
            let i = Atomic.get slot.job in
            if i >= 0 then begin
              let t = Atomic.get slot.ticket in
              let started = float_of_int (Atomic.get slot.started_us) /. 1e6 in
              if
                Clock.now () -. started > lim
                && Atomic.get slot.job = i
                && Atomic.get slot.ticket = t
              then begin
                abandoned := true;
                tick Resilience.Timeout;
                if not (retry_or_give_up i t) then begin
                  if Atomic.compare_and_set jstate.(i) t (-1) then begin
                    tick Resilience.Quarantine;
                    resolve i
                      (Error
                         (Timed_out
                            {
                              elapsed = Clock.now () -. started;
                              attempts = total_attempts i;
                            }))
                  end
                end;
                spawn_worker ()
              end
            end
          end)
        !workers
    in
    let rec supervise () =
      if Atomic.get completed >= n || cancel () then ()
      else begin
        Option.iter sweep wedge_limit;
        Unix.sleepf poll;
        supervise ()
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        (* join every live worker; an abandoned (wedged) domain cannot be
           joined without hanging — it is left to finish into the void,
           its claim-check already guarantees its result is discarded *)
        List.iter
          (fun (d, _, abandoned) -> if not !abandoned then Domain.join d)
          !workers)
      supervise;
    (* cancellation epilogue: everything unresolved is marked cancelled,
       without firing [on_result] — the work did not finish *)
    if Atomic.get completed < n then
      Array.iteri
        (fun i st ->
          let s = Atomic.get st in
          if s <> -1 && Atomic.compare_and_set st s (-1) then begin
            results.(i) <-
              Error (Crashed { reason = "cancelled"; attempts = total_attempts i });
            Atomic.incr completed
          end)
        jstate;
    results
  end

(* ------------------------------------------------------------------ *)
(* Resumable campaigns                                                 *)
(* ------------------------------------------------------------------ *)

let run_journaled ~jobs ?timeout ?retries ?cancel ?resilience ?journal ?resume
    ~key ~encode ~decode f inputs =
  let replayed = Hashtbl.create 64 in
  Option.iter
    (fun path ->
      List.iter
        (fun j ->
          match decode j with
          | Some (k, v) when not (Hashtbl.mem replayed k) ->
            Hashtbl.add replayed k v
          | _ -> ())
        (Journal.load path))
    resume;
  let results =
    Array.map
      (fun x ->
        match Hashtbl.find_opt replayed (key x) with
        | Some v ->
          Option.iter (fun r -> Resilience.tick r Resilience.Resumed) resilience;
          Ok v
        | None -> Error (Crashed { reason = "cancelled"; attempts = 0 }))
      inputs
  in
  let fresh =
    Array.of_list
      (List.filter
         (fun i -> Result.is_error results.(i))
         (List.init (Array.length inputs) Fun.id))
  in
  let writer = Option.map Journal.create journal in
  let on_result k o =
    match (o, writer) with
    | Ok v, Some w ->
      Option.iter (Journal.record w) (encode inputs.(fresh.(k)) v)
    | _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close writer)
    (fun () ->
      run_supervised ~jobs ?timeout ?retries ?cancel ?resilience ~on_result f
        (Array.map (fun i -> inputs.(i)) fresh))
  |> Array.iteri (fun k o -> results.(fresh.(k)) <- o);
  results
