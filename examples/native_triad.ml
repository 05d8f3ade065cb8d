(** Native backend on the STREAM-style [triad] suite program: run the
    same post-regalloc IR through the interpreter and through the
    compiled-C backend, check every observable agrees bit for bit, and
    report the speedup.

    Degrades gracefully: the native half goes down the backend's
    degradation ladder, so without a working system C compiler the
    example prints the interpreter numbers and says why the native half
    fell back.

    {v dune exec examples/native_triad.exe v} *)

open Rp_driver
module I = Rp_exec.Interp
module Native = Rp_backend.Native

let () =
  Fmt.pr "== native backend: STREAM-style triad at hardware speed ==@.@.";
  let prog = (Rp_suite.Programs.find "triad").Rp_suite.Programs.source in
  let config = Config.default in
  let compiled, stats = Pipeline.compile ~config prog in
  Fmt.pr "compiled [triad] under the default configuration: promoted=%d \
          hoisted=%d@.@."
    stats.Pipeline.promoted stats.Pipeline.hoisted;
  let t0 = Rp_support.Clock.now () in
  let ri = I.run compiled in
  let interp_ms = 1000. *. (Rp_support.Clock.now () -. t0) in
  Fmt.pr "interpreter: ops=%d loads=%d stores=%d checksum=%d  %.1f ms@."
    ri.I.total.I.ops ri.I.total.I.loads ri.I.total.I.stores ri.I.checksum
    interp_ms;
  let cc = Native.find_cc () in
  let lad =
    Native.run_laddered ~interp:(fun () -> (ri, interp_ms)) ~cc compiled
  in
  match (cc, lad.Native.l_mode) with
  | None, _ | _, `Interp ->
    Fmt.pr "@.native backend skipped: %s@."
      (Option.value lad.Native.l_degraded ~default:"interpreter rung")
  | Some cc, `Native ->
    let rn = lad.Native.l_result in
    Fmt.pr "native (%s): ops=%d loads=%d stores=%d checksum=%d  %.1f ms \
            (+%.0f ms cc)@."
      cc.Native.identity rn.I.total.I.ops rn.I.total.I.loads
      rn.I.total.I.stores rn.I.checksum lad.Native.l_exec_ms
      lad.Native.l_cc_ms;
    assert (ri.I.output = rn.I.output);
    assert (ri.I.checksum = rn.I.checksum);
    assert (ri.I.total = rn.I.total);
    assert (ri.I.per_func = rn.I.per_func);
    Fmt.pr
      "@.every observable agrees (output, checksum, total and per-function \
       counts);@.execution is %.1fx faster than interpretation.@."
      (interp_ms /. lad.Native.l_exec_ms)
