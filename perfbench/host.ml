(** Host calibration, recorded with every result so that runs on
    different hosts can be compared: a best-of-N integer spin probe, a
    best-of-N memory-copy probe, and the host's identity. *)

module Json = Rp_support.Json

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(** Milliseconds for 10M steps of a dependent integer recurrence. *)
let spin_ms () =
  let sink = ref 0 in
  let s =
    best_of 7 (fun () ->
        let x = ref 1 in
        for _ = 1 to 10_000_000 do
          x := ((!x * 1103515245) + 12345) land 0x3fffffff
        done;
        sink := !sink + !x)
  in
  ignore (Sys.opaque_identity !sink : int);
  1000. *. s

(** Copy bandwidth in GB/s over a 32 MiB buffer. *)
let memcpy_gbps () =
  let n = 32 lsl 20 in
  let src = Bytes.make n 'x' and dst = Bytes.create n in
  let s = best_of 7 (fun () -> Bytes.blit src 0 dst 0 n) in
  float n /. s /. 1e9

let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic : Unix.process_status);
    line

let record () =
  let cc =
    match Rp_backend.Native.find_cc () with
    | Some cc -> Json.Str cc.Rp_backend.Native.identity
    | None -> Json.Null
  in
  Json.Obj
    [
      ("spin_ms", Json.Float (spin_ms ()));
      ("memcpy_gbps", Json.Float (memcpy_gbps ()));
      ("uname", Json.Str (command_line "uname" [ "-srmv" ]));
      ("cc", cc);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]
