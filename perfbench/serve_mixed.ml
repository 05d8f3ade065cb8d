(** The serve-mixed workload: one closed-loop client sends single-request
    batches to one [rpcc serve --jobs 1] daemon.  The programs are
    generated Mini-C ({!Rp_fuzz.Gen}) under the paper-grid configurations;
    the seeded schedule requests every (program, config) key once as a
    first touch (compile, run, store writes, journal) and three more times
    as store hits.  Each round replays the schedule against a daemon
    started on a fresh state directory, so every round sees the same mix. *)

open Common
module Client = Rp_serve.Client
module Protocol = Rp_serve.Protocol
module Journal = Rp_support.Journal

(** The corpus is fixed — the workload seed draws the schedule — so runs
    with different seeds measure the same programs and compare. *)
let corpus_seed = 1997

(** 20 programs × 6 configs = 120 keys: a round of 480 requests takes
    about three seconds, so a run of [run_seconds] (BENCHMARK.json) holds
    ten or more latencies of every request. *)
let programs = 20

type key = { prog : int; cname : string; config : Config.t; src : string; name : string }

let corpus = Array.init programs (fun trial -> Rp_fuzz.Gen.program_of_seed ~seed:corpus_seed ~trial)

let keys =
  Array.of_list
    (List.concat
       (List.init programs (fun prog ->
            List.map
              (fun (cname, config) ->
                { prog; cname; config; src = corpus.(prog); name = Printf.sprintf "gen%d %s" prog cname })
              Config.paper_grid)))

(** Digest of the inputs: the generated corpus and the configuration list. *)
let digest =
  Cas.key
    (("perfbench-serve/1" :: Array.to_list corpus)
    @ List.map (fun (n, c) -> n ^ "=" ^ Config.fingerprint c) Config.paper_grid)

(** 4 × |keys| requests: each key's first touch, at a seeded position,
    precedes the three repeats drawn from the keys touched so far. *)
let schedule seed =
  let rng = Random.State.make [| seed |] in
  let d = Array.length keys in
  let fresh = Array.init d Fun.id in
  for i = d - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = fresh.(i) in
    fresh.(i) <- fresh.(j);
    fresh.(j) <- t
  done;
  let total = 4 * d in
  let touched = ref 0 in
  Array.init total (fun i ->
      if !touched = 0 || Random.State.int rng (total - i) < d - !touched then begin
        incr touched;
        fresh.(!touched - 1)
      end
      else fresh.(Random.State.int rng !touched))

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(** Daemons not yet stopped; {!kill_all} ends them on every exit path. *)
let live : int list ref = ref []

let reap pid = try ignore (Unix.waitpid [] pid : int * Unix.process_status) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live;
  live := []

(** SIGTERM (the daemon drains and unlinks its socket), then SIGKILL if it
    has not exited within ten seconds; always reaped. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (( <> ) d.pid) !live;
  try Sys.remove d.socket with Sys_error _ -> ()

(** A daemon on a fresh state directory, accepting connections. *)
let start ctx =
  let dir = fresh_dir (Filename.concat ctx.state "serve/daemon") in
  let socket = Filename.concat dir "sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process ctx.rpcc
          [| ctx.rpcc; "serve"; "--socket"; socket; "--state-dir"; dir; "--jobs"; "1" |]
          Unix.stdin log log)
  in
  live := pid :: !live;
  let d = { pid; socket } in
  if not (Client.wait_ready ~attempts:5000 ~delay:0.002 ~socket ()) then begin
    stop d;
    failwith "rpcc serve did not start accepting within 10 s"
  end;
  d

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

type state = {
  acc : acc;
  reference : (string * int) option array;  (** O0 output, checksum per program *)
  counts : (int * int * int) option array;  (** per key, in-process *)
  instrs : int option array;
  lat_ms : float list array;  (** untraced latencies per schedule position *)
  mutable rss_mb : float;
}

(** Record [v] in [slot], or check it repeats. *)
let observe st what slot i v =
  match slot.(i) with
  | None -> slot.(i) <- Some v
  | Some v' when v' = v -> ()
  | Some _ -> fail st.acc (Printf.sprintf "determinism: %s %s changed" keys.(i).name what)

(** One set-up pass: the O0 reference run of every program, an in-process
    compile and run of every key (code size and counts, checked against
    the reference), and one daemon start on a fresh state dir. *)
let setup ctx st =
  Array.iteri
    (fun i src ->
      let p, _ = Pipeline.compile ~config:Config.o0 src in
      let r = Interp.run p in
      observe st "O0 reference" st.reference i (r.Interp.output, r.Interp.checksum))
    corpus;
  Array.iteri
    (fun i k ->
      let p, _ = Pipeline.compile ~config:k.config k.src in
      observe st "code_instrs" st.instrs i (Rp_ir.Program.size p);
      let r = Interp.run p in
      let t = r.Interp.total in
      observe st "counts" st.counts i (t.Interp.ops, t.Interp.loads, t.Interp.stores);
      let output, checksum = Option.get st.reference.(k.prog) in
      job st.acc
        ((if r.Interp.output = output then [] else [ k.name ^ ": output differs from O0" ])
        @ check_result k.name r ~checksum ()))
    keys;
  stop (start ctx)

(** What the daemon does for a run request, done in-process on the
    benchmark's own store and journal, one layer call at a time:
    journal the request, serve it from the store or compile, run and
    fill the store, journal the completion. *)
type shadow = { cas : Cas.t; journal : Journal.writer }

let shadow sh k =
  let key = keys.(k) in
  let ck = Pipeline.cache_key ~config:key.config key.src in
  let journal ev =
    Trace.span "journal.record" (fun () ->
        Journal.record sh.journal (Json.Obj [ ("ev", Json.Str ev); ("key", Json.Str ck) ]))
  in
  let get kind =
    Trace.span "cas.get" (fun () ->
        Trace.count "cas.gets" 1.;
        let v = Cas.get sh.cas ~key:ck ~kind in
        if v <> None then Trace.count "cas.hits" 1.;
        v)
  in
  let put kind v =
    Trace.span "cas.put" (fun () ->
        Trace.count "cas.puts" 1.;
        Cas.put sh.cas ~key:ck ~kind v)
  in
  journal "recv";
  (match (get "program", get "stats", get "result") with
  | Some _, Some stats, Some result ->
    ignore (Json.parse stats : Json.t);
    ignore (Json.parse result : Json.t)
  | _ ->
    let front = ref "" in
    let p, s =
      compile ~front:(fun p -> front := Rp_ir.Serial.write p) ~cell:key.name ~config:key.config key.src
    in
    let r = interp p in
    Trace.span "exec.interp.nocheck" (fun () -> interp_nocheck p);
    let t = r.Interp.total in
    put "front" !front;
    put "program" (Rp_ir.Serial.write p);
    put "stats" (Json.to_string ~indent:false (Pipeline.stats_json key.config s));
    put "result"
      (Json.to_string ~indent:false
         (Json.Obj
            [
              ("output", Json.Str r.Interp.output);
              ("checksum", Json.Int r.Interp.checksum);
              ("ops", Json.Int t.Interp.ops);
              ("loads", Json.Int t.Interp.loads);
              ("stores", Json.Int t.Interp.stores);
            ])));
  journal "done"

let request_json j k =
  Json.Obj
    [
      ("schema", Json.Str Protocol.schema);
      ("id", Json.Int j);
      ("client", Json.Str "perfbench");
      ("op", Json.Str "run");
      ("src", Json.Str keys.(k).src);
      ("config", Json.Str keys.(k).cname);
    ]

let field path doc =
  List.fold_left (fun d k -> Option.bind d (Json.member k)) (Some doc) path

(** Check one response against the O0 reference and the in-process
    counts; an error, overloaded or rejected response is a failure. *)
let check_response st k resp =
  let key = keys.(k) in
  let int k' = match field [ "result"; k' ] resp with Some (Json.Int i) -> i | _ -> -1 in
  match Protocol.response_status resp with
  | "ok" ->
    let output, checksum = Option.get st.reference.(key.prog) in
    let ops, loads, stores = Option.get st.counts.(k) in
    (if field [ "result"; "output" ] resp = Some (Json.Str output) then []
     else [ key.name ^ ": output differs from O0" ])
    @ expect (key.name ^ " checksum") ~got:(int "checksum") ~want:checksum
    @ expect (key.name ^ " ops") ~got:(int "ops") ~want:ops
    @ expect (key.name ^ " loads") ~got:(int "loads") ~want:loads
    @ expect (key.name ^ " stores") ~got:(int "stores") ~want:stores
  | status ->
    Trace.count
      (match status with
      | "overloaded" -> "serve.overloaded"
      | "rejected" -> "serve.rejected"
      | _ -> "serve.errors")
      1.;
    [ Printf.sprintf "%s: %s response" key.name status ]

let health d =
  match
    Client.call ~timeout:60. ~socket:d.socket
      [ Json.Obj [ ("schema", Json.Str Protocol.schema); ("client", Json.Str "perfbench"); ("op", Json.Str "health") ] ]
  with
  | [ r ] -> Option.value ~default:Json.Null (Json.member "health" r)
  | _ -> Json.Null

(** One round: a fresh daemon, the whole schedule, then its health and
    peak RSS.  Returns the seconds spent in requests (probes excluded). *)
let round ctx st sched shadow_dir =
  let d = start ctx in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let sh =
        if !Trace.enabled then begin
          let dir = fresh_dir shadow_dir in
          Some { cas = Cas.open_ (Filename.concat dir "cas"); journal = Journal.create (Filename.concat dir "journal.jsonl") }
        end
        else None
      in
      let t0 = now () and p0 = Trace.probe_s () in
      Array.iteri
        (fun j k ->
          let req = request_json j k in
          let t1 = now () in
          match Trace.job j (fun () -> Trace.span "serve.client.call" (fun () -> Client.call ~timeout:60. ~socket:d.socket [ req ])) with
          | [ resp ] ->
            if not !Trace.enabled then st.lat_ms.(j) <- (1000. *. (now () -. t1)) :: st.lat_ms.(j);
            job st.acc (check_response st k resp);
            Option.iter
              (fun sh ->
                Trace.probe j "serve.protocol.encode" (fun () -> ignore (Json.to_string ~indent:false req : string));
                let line = Json.to_string ~indent:false resp in
                Trace.probe j "serve.protocol.decode" (fun () ->
                    ignore (Protocol.response_status (Json.parse line) : string));
                Trace.probe j "serve.shadow" (fun () -> shadow sh k))
              sh
          | resps -> job st.acc [ Printf.sprintf "%s: %d responses to one request" keys.(k).name (List.length resps) ]
          | exception e -> job st.acc [ keys.(k).name ^ ": " ^ Printexc.to_string e ])
        sched;
      let t = now () -. t0 -. (Trace.probe_s () -. p0) in
      let h = health d in
      let hint path = match field path h with Some (Json.Int i) -> i | _ -> 0 in
      if hint [ "cache"; "quarantined" ] > 0 then
        fail st.acc (Printf.sprintf "daemon store quarantined %d entries" (hint [ "cache"; "quarantined" ]));
      Option.iter
        (fun sh ->
          Journal.close sh.journal;
          let q = (Cas.stats sh.cas).Cas.quarantined in
          Trace.count "cas.quarantined" (float q);
          if q > 0 then fail st.acc (Printf.sprintf "shadow store quarantined %d entries" q))
        sh;
      st.rss_mb <- Float.max st.rss_mb (peak_rss_mb (string_of_int d.pid));
      t)

let run ctx acc : outcome =
  let n = Array.length keys in
  let st =
    {
      acc;
      reference = Array.make programs None;
      counts = Array.make n None;
      instrs = Array.make n None;
      lat_ms = Array.make (4 * n) [];
      rss_mb = 0.;
    }
  in
  let setup_s = median_time setup_reps (fun _ -> setup ctx st) in
  let sched = schedule ctx.seed in
  let shadow_dir = Filename.concat ctx.state "serve/shadow" in
  let half = if ctx.trace then ctx.seconds /. 2. else ctx.seconds in
  let round_s = rounds ~seconds:half (fun () -> round ctx st sched shadow_dir) in
  let layers =
    if not ctx.trace then []
    else begin
      Trace.enabled := true;
      let traced_s = rounds ~seconds:half (fun () -> round ctx st sched shadow_dir) in
      Trace.enabled := false;
      let n = List.length traced_s in
      layer_metrics ~rounds:n
        ~extra:
          [
            ("trace.overhead_pct", overhead_pct ~untraced:round_s ~traced:traced_s);
            (* the shadow's tag-check rerun is not daemon work *)
            ( "serve.daemon.overhead_ms",
              (Trace.total_ms "serve.client.call" -. Trace.total_ms "serve.shadow"
              +. Trace.total_ms "exec.interp.nocheck")
              /. float n );
          ]
    end
  in
  let total f = Array.fold_left (fun a v -> a + Option.fold ~none:0 ~some:f v) 0 in
  let ops = total (fun (o, _, _) -> o) st.counts
  and loads = total (fun (_, l, _) -> l) st.counts
  and stores = total (fun (_, _, s) -> s) st.counts
  and code_instrs = total Fun.id st.instrs in
  determinism_guard acc ctx ~digest
    [ ("dyn_ops", ops); ("dyn_loads", loads); ("dyn_stores", stores); ("code_instrs", code_instrs) ];
  {
    setup_s;
    lat_ms = st.lat_ms;
    round_s;
    jobs = Array.length sched * List.length round_s;
    dyn = (ops, loads, stores);
    run_ms = None;
    code_instrs;
    peak_rss_mb = st.rss_mb;
    digest;
    layers;
    notes = [ ("keys", Json.Int n); ("requests_per_round", Json.Int (Array.length sched)) ];
  }
