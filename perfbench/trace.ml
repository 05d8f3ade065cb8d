(** In-memory spans for the traced run.

    Disabled (the default), {!span} is a plain call.  Enabled, every call
    records a span — name, start, end, parent span, job id — kept in
    memory and written out by {!write} when the run ends.  A layer's self
    time is its spans' durations minus the part covered by their direct
    children.  Spans are recorded only from this benchmark's own files,
    around the calls into each layer's public functions. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  job : int;  (** -1 outside any job *)
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_job = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let now = Rp_support.Clock.now

let record name ~parent t0 t1 =
  let id = !next_id in
  incr next_id;
  recorded := { id; parent; job = !current_job; name; t0; t1 } :: !recorded

let parent () = match !open_spans with p :: _ -> p | [] -> -1

(** Time [f] as a span named [name], child of the innermost open span. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = parent () in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let finish () =
      open_spans := List.tl !open_spans;
      recorded :=
        { id; parent; job = !current_job; name; t0; t1 = now () }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(** Run [f] as traced-only work for job [id] beside the job itself (a
    measurement the untraced run does not make), under a top-level span
    [name]; {!probe_s} sums these so the traced phase can leave them out
    of its throughput. *)
let probe id name f =
  if not !enabled then f ()
  else begin
    current_job := id;
    Fun.protect ~finally:(fun () -> current_job := -1) (fun () -> span name f)
  end

(** Run [f] as job [id]: its spans carry the id, under a top-level span
    named ["job"] whose duration is the job's latency. *)
let job id f = probe id "job" f

(** Lay out [timings] (name, seconds, in execution order) as consecutive
    child spans of the innermost open span, starting at [t0].  Used for
    the per-pass times {!Rp_driver.Pipeline.optimize} reports. *)
let synthesize ~t0 (timings : (string * float) list) =
  if !enabled then begin
    let parent = parent () in
    ignore
      (List.fold_left
         (fun t (name, d) ->
           record name ~parent t (t +. d);
           t +. d)
         t0 timings
        : float)
  end

(** Add [v] to the named counter (traced runs only). *)
let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

let dur s = s.t1 -. s.t0

(** Self time in milliseconds, summed per span name. *)
let self_ms () : (string, float) Hashtbl.t =
  let children : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !recorded;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      let ms = 1000. *. Float.max 0. (dur s -. covered) in
      Hashtbl.replace self s.name
        (ms +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    !recorded;
  self

(** Inclusive milliseconds, summed per span name. *)
let total_ms name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (1000. *. dur s) else acc)
    0. !recorded

(** Seconds spent in top-level spans other than jobs: probe work the
    traced run adds beside the measured jobs. *)
let probe_s () =
  List.fold_left
    (fun acc s -> if s.parent < 0 && s.name <> "job" then acc +. dur s else acc)
    0. !recorded

let span_count () = List.length !recorded

(** Write every span as one JSON line, times in microseconds from [origin],
    in recording order. *)
let write path ~origin =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id s.parent s.job s.name
            (1e6 *. (s.t0 -. origin))
            (1e6 *. (s.t1 -. origin)))
        (List.rev !recorded))
