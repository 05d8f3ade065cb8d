(** Register allocator tests: colorings respect k, copies coalesce,
    semantics survive allocation at many register counts, spills appear as
    tagged memory traffic, and constants rematerialize instead of spilling. *)

open Rp_ir
open Rp_driver
module RA = Rp_regalloc.Regalloc

let max_reg (f : Func.t) =
  let m = ref (-1) in
  Func.iter_instrs
    (fun _ i ->
      List.iter (fun r -> m := max !m r) (Instr.defs i);
      List.iter (fun r -> m := max !m r) (Instr.uses i))
    f;
  List.iter (fun r -> m := max !m r) f.Func.params;
  !m

let sources =
  [
    ("expr", "int main() { int a = 1; int b = 2; int c = a * 3 + b * 5; \
              print_int(c + a - b); return 0; }");
    ("loop", "int g; int main() { int i; for (i = 0; i < 50; i++) g += i * \
              i; print_int(g); return 0; }");
    ("callheavy",
     "int f(int a, int b, int c) { return a * b + c; } int main() { int s \
      = 0; int i; for (i = 0; i < 20; i++) s += f(i, i + 1, s); \
      print_int(s); return 0; }");
    ("floats",
     "float acc; int main() { int i; for (i = 0; i < 30; i++) { acc = acc \
      * 0.5 + 1.0; } print_float(acc); return 0; }");
    ("wide",
     "int main() { int a=1; int b=2; int c=3; int d=4; int e=5; int f=6; \
      int g=7; int h=8; int i=9; int j=10; int k=11; int l=12; \
      print_int(a+b*c+d*e+f*g+h*i+j*k+l*(a+b)*(c+d)*(e+f)*(g+h)*(i+j)); \
      return 0; }");
  ]

(* a loop with many live loop-invariant constants *)
let const_loop =
  "int g; int main() { int i; for (i = 0; i < 100; i++) { g = g + 11 * 13 \
   + i * 17 + i * 19 + i * 23 + i * 29 + i * 31 + i * 37; } print_int(g); \
   return 0; }"

let respect_k_tests =
  List.concat_map
    (fun (name, src) ->
      List.map
        (fun k ->
          Util.tc (Printf.sprintf "%s fits in k=%d" name k) (fun () ->
              let cfg = { Config.default with Config.k } in
              let p = Util.compile ~config:cfg src in
              Program.iter_funcs
                (fun f ->
                  Util.check Alcotest.bool
                    (Printf.sprintf "%s max reg < %d" f.Func.name k)
                    true
                    (max_reg f < k))
                p))
        [ 4; 6; 8; 16; 32 ])
    sources

let semantics_tests =
  List.map
    (fun (name, src) ->
      Util.tc ("allocation preserves semantics: " ^ name) (fun () ->
          ignore
            (Util.differential
               ~configs:
                 [
                   ("noalloc",
                    { Config.default with Config.regalloc = false });
                   ("k4", { Config.default with Config.k = 4 });
                   ("k5", { Config.default with Config.k = 5 });
                   ("k7", { Config.default with Config.k = 7 });
                   ("k24", Config.default);
                 ]
               src)))
    sources

let spill_tests =
  [
    Util.tc "high pressure forces spills that appear as memory traffic"
      (fun () ->
        let src =
          "int main() { int a=1; int b=2; int c=3; int d=4; int e=5; int \
           f=6; int g=7; int h=8; int s = 0; int i; for (i = 0; i < 100; \
           i++) { s += a*b + c*d + e*f + g*h + a*c + b*d + e*g + f*h; a = \
           s % 9 + 1; b = s % 7 + 1; c = s % 5 + 1; d = s % 3 + 1; e = a + \
           b; f = c + d; g = e + f; h = g + a; } print_int(s); return 0; }"
        in
        let tight = { Config.default with Config.k = 5 } in
        let roomy = { Config.default with Config.k = 32 } in
        let (_, l_tight, s_tight) = Util.counts ~config:tight src in
        let (_, l_roomy, s_roomy) = Util.counts ~config:roomy src in
        Util.check Alcotest.bool "tight k costs memory traffic" true
          (l_tight + s_tight > l_roomy + s_roomy);
        Util.check Alcotest.string "same output"
          (Util.output ~config:tight src)
          (Util.output ~config:roomy src));
    Util.tc "spill slots are tagged to their function" (fun () ->
        let src =
          "int main() { int a=1; int b=2; int c=3; int d=4; int e=5; \
           print_int((a+b)*(c+d)*(e+a)*(b+c)*(d+e)*(a+c)*(b+d)); return 0; }"
        in
        let p = Util.compile ~config:{ Config.default with Config.k = 4 } src in
        let spill_tags =
          List.filter
            (fun (t : Tag.t) ->
              match t.Tag.storage with Tag.Spill _ -> true | _ -> false)
            (Tag.Table.all p.Program.tags)
        in
        (* with k=4 this expression tree needs some spills or remats; if
           slots exist they must be scalars owned by main *)
        List.iter
          (fun (t : Tag.t) ->
            Util.check Alcotest.bool "scalar slot" true t.Tag.is_scalar;
            match t.Tag.storage with
            | Tag.Spill fn -> Util.check Alcotest.string "owner" "main" fn
            | _ -> assert false)
          spill_tags);
    Util.tc "constants rematerialize rather than spill" (fun () ->
        (* a loop with many live loop-invariant constants: they must not
           produce spill loads *)
        let src = const_loop in
        let cfg = { Config.default with Config.k = 6 } in
        let (_, _, r) = Pipeline.compile_and_run ~config:cfg src in
        ignore r;
        ignore (Util.differential src));
    Util.tc "water-style pressure: promotion triggers over-spilling"
      (fun () ->
        let src = (Rp_suite.Programs.find "water").Rp_suite.Programs.source in
        let without =
          { Config.default with Config.promote = false; k = 16 }
        in
        let with_ = { Config.default with Config.k = 16 } in
        let (ops_without, _, _) = Util.counts ~config:without src in
        let (ops_with, _, _) = Util.counts ~config:with_ src in
        Util.check Alcotest.bool "promotion loses under pressure" true
          (ops_with > ops_without));
  ]

let stats_tests =
  [
    Util.tc "alloc_program sums remat_regs (constant-heavy loop at k=4)"
      (fun () ->
        (* [wide] folds to one constant under the optimizer, so the
           constant-heavy loop is the source that rematerializes *)
        let unallocated () =
          Util.compile
            ~config:{ Config.default with Config.regalloc = false }
            const_loop
        in
        let per_func = ref 0 in
        let p = unallocated () in
        Program.iter_funcs
          (fun f ->
            per_func := !per_func + (RA.alloc_func p ~k:4 f).RA.remat_regs)
          p;
        let st = RA.alloc_program ~k:4 (unallocated ()) in
        Util.check Alcotest.bool "remat_regs > 0" true (st.RA.remat_regs > 0);
        Util.check Alcotest.int "sum of per-function remat_regs" !per_func
          st.RA.remat_regs);
    Util.tc "alloc_func rejects k < 4" (fun () ->
        let p =
          Util.compile
            ~config:{ Config.default with Config.regalloc = false }
            (List.assoc "expr" sources)
        in
        Alcotest.check_raises "k=3"
          (Invalid_argument "Regalloc: need at least 4 registers") (fun () ->
            ignore (RA.alloc_func p ~k:3 (Program.func p "main"))));
  ]

let coalesce_tests =
  [
    Util.tc "copies disappear in simple code" (fun () ->
        let p =
          Util.compile "int main() { int a = 3; int b = a; int c = b; \
                        print_int(c); return 0; }"
        in
        let f = Program.func p "main" in
        let copies = ref 0 in
        Func.iter_instrs
          (fun _ i -> match i with Instr.Copy _ -> incr copies | _ -> ())
          f;
        Util.check Alcotest.int "no copies left" 0 !copies);
    Util.tc "promotion-inserted copies coalesce away" (fun () ->
        (* the paper: "The copies are subject to coalescing by the register
           allocator.  It is quite effective at eliminating copies like
           these." *)
        let src =
          "int g; int main() { int i; for (i = 0; i < 100; i++) g += i; \
           print_int(g); return 0; }"
        in
        let p = Util.compile src in
        let f = Program.func p "main" in
        let copies = ref 0 in
        Func.iter_instrs
          (fun _ i -> match i with Instr.Copy _ -> incr copies | _ -> ())
          f;
        Util.check Alcotest.bool "at most one copy remains" true (!copies <= 1));
    Util.tc "params keep distinct registers" (fun () ->
        let src =
          "int sub(int a, int b) { return a - b; } int main() { \
           print_int(sub(9, 4)); return 0; }"
        in
        let p = Util.compile src in
        let f = Program.func p "sub" in
        match f.Func.params with
        | [ a; b ] -> Util.check Alcotest.bool "distinct" true (a <> b)
        | _ -> Alcotest.fail "two params expected");
  ]

let recursion_tests =
  [
    Util.tc "recursion works after allocation (private register files)"
      (fun () ->
        let src =
          "int fib(int n) { if (n < 2) return n; return fib(n-1) + \
           fib(n-2); } int main() { print_int(fib(15)); return 0; }"
        in
        Util.check Alcotest.string "fib 15" "610\n"
          (Util.output ~config:{ Config.default with Config.k = 5 } src));
    Util.tc "deep expression in a recursive function at k=4" (fun () ->
        let src =
          "int f(int n) { if (n == 0) return 1; return (f(n-1) * 3 + n * 7) \
           % 1000; } int main() { print_int(f(30)); return 0; }"
        in
        ignore
          (Util.differential
             ~configs:
               [
                 ("k4", { Config.default with Config.k = 4 });
                 ("k24", Config.default);
                 ("noalloc", { Config.default with Config.regalloc = false });
               ]
             src));
  ]


(* ------------------------------------------------------------------ *)
(* Golden post-allocation IL                                           *)
(* ------------------------------------------------------------------ *)

(* Every suite program under the six paper-grid configurations (k = 24),
   plus water under modref/with swept over k: the digest of the serialized
   post-pipeline program and the allocator's spilled/coalesced counts.  Any
   change to a colouring, coalescing or spill decision moves a digest. *)
let golden_cells : (string * string * int * string * int * int) list =
  [
    ("tsp", "modref/without", 24, "73e60f9695751229a41bb6239e58ced3", 0, 33);
    ("tsp", "modref/with", 24, "487cc44ae0f01f80cba6d1d853e736dc", 0, 32);
    ("tsp", "modref/ptr", 24, "487cc44ae0f01f80cba6d1d853e736dc", 0, 32);
    ("tsp", "pointer/without", 24, "73e60f9695751229a41bb6239e58ced3", 0, 33);
    ("tsp", "pointer/with", 24, "487cc44ae0f01f80cba6d1d853e736dc", 0, 32);
    ("tsp", "pointer/ptr", 24, "487cc44ae0f01f80cba6d1d853e736dc", 0, 32);
    ("mlink", "modref/without", 24, "1b396ecd834320f175bc0c5c346a51f7", 0, 21);
    ("mlink", "modref/with", 24, "a7f814af1e90123f0b236eca56cfd8c2", 0, 10);
    ("mlink", "modref/ptr", 24, "a7f814af1e90123f0b236eca56cfd8c2", 0, 10);
    ("mlink", "pointer/without", 24, "1b396ecd834320f175bc0c5c346a51f7", 0, 21);
    ("mlink", "pointer/with", 24, "a7f814af1e90123f0b236eca56cfd8c2", 0, 10);
    ("mlink", "pointer/ptr", 24, "a7f814af1e90123f0b236eca56cfd8c2", 0, 10);
    ("fft", "modref/without", 24, "d267d910dd4e5d4721e7a7a81dc8b805", 0, 30);
    ("fft", "modref/with", 24, "6c5ae47e795ef76a5dae64097a6ac121", 0, 30);
    ("fft", "modref/ptr", 24, "843708f1d7782bb52f9ff98be10c0356", 0, 32);
    ("fft", "pointer/without", 24, "dd0058db2b886d97230e49d51b19172d", 0, 30);
    ("fft", "pointer/with", 24, "54b7c7116db7bddeafb6298813d1cbe4", 0, 33);
    ("fft", "pointer/ptr", 24, "2e0ee44ff91b85eb7a2c204bb98ec0b7", 0, 35);
    ("clean", "modref/without", 24, "25ea3e43250896c167fbcaf96ce7f53c", 0, 16);
    ("clean", "modref/with", 24, "f1d7974055d13bf45bf3166dda356bfb", 0, 22);
    ("clean", "modref/ptr", 24, "f1d7974055d13bf45bf3166dda356bfb", 0, 22);
    ("clean", "pointer/without", 24, "25ea3e43250896c167fbcaf96ce7f53c", 0, 16);
    ("clean", "pointer/with", 24, "f1d7974055d13bf45bf3166dda356bfb", 0, 22);
    ("clean", "pointer/ptr", 24, "f1d7974055d13bf45bf3166dda356bfb", 0, 22);
    ("sim", "modref/without", 24, "11dfc07d25b93f6bfac2872b2cb660e8", 0, 25);
    ("sim", "modref/with", 24, "11dfc07d25b93f6bfac2872b2cb660e8", 0, 25);
    ("sim", "modref/ptr", 24, "11dfc07d25b93f6bfac2872b2cb660e8", 0, 25);
    ("sim", "pointer/without", 24, "11dfc07d25b93f6bfac2872b2cb660e8", 0, 25);
    ("sim", "pointer/with", 24, "11dfc07d25b93f6bfac2872b2cb660e8", 0, 25);
    ("sim", "pointer/ptr", 24, "11dfc07d25b93f6bfac2872b2cb660e8", 0, 25);
    ("dhrystone", "modref/without", 24, "e2addaa8d64cf45e640282747f85dcfc", 0, 10);
    ("dhrystone", "modref/with", 24, "3510e3a5b34288393c291d24f5dad247", 0, 14);
    ("dhrystone", "modref/ptr", 24, "3510e3a5b34288393c291d24f5dad247", 0, 14);
    ("dhrystone", "pointer/without", 24, "f17cb08acbabe42bec2ebc865b913796", 0, 10);
    ("dhrystone", "pointer/with", 24, "e293aaf4db87ad218681abb52cd97e83", 0, 14);
    ("dhrystone", "pointer/ptr", 24, "e293aaf4db87ad218681abb52cd97e83", 0, 14);
    ("water", "modref/without", 24, "e1caa22d65ca2b72aa6aea50f47689bc", 0, 6);
    ("water", "modref/with", 24, "a4110c4ac2898ecd5cdf7c95423ede37", 30, 105);
    ("water", "modref/ptr", 24, "a4110c4ac2898ecd5cdf7c95423ede37", 30, 105);
    ("water", "pointer/without", 24, "e1caa22d65ca2b72aa6aea50f47689bc", 0, 6);
    ("water", "pointer/with", 24, "a4110c4ac2898ecd5cdf7c95423ede37", 30, 105);
    ("water", "pointer/ptr", 24, "a4110c4ac2898ecd5cdf7c95423ede37", 30, 105);
    ("indent", "modref/without", 24, "4f931051ca53a18c77c20968a1e13d45", 0, 19);
    ("indent", "modref/with", 24, "dbbdfa3e4dc3eb1ce160b5a7a5ff305f", 0, 27);
    ("indent", "modref/ptr", 24, "dbbdfa3e4dc3eb1ce160b5a7a5ff305f", 0, 27);
    ("indent", "pointer/without", 24, "4f931051ca53a18c77c20968a1e13d45", 0, 19);
    ("indent", "pointer/with", 24, "dbbdfa3e4dc3eb1ce160b5a7a5ff305f", 0, 27);
    ("indent", "pointer/ptr", 24, "dbbdfa3e4dc3eb1ce160b5a7a5ff305f", 0, 27);
    ("allroots", "modref/without", 24, "7090d0e02482f2d5e7d2eafd59778edd", 0, 7);
    ("allroots", "modref/with", 24, "7090d0e02482f2d5e7d2eafd59778edd", 0, 7);
    ("allroots", "modref/ptr", 24, "7090d0e02482f2d5e7d2eafd59778edd", 0, 7);
    ("allroots", "pointer/without", 24, "7090d0e02482f2d5e7d2eafd59778edd", 0, 7);
    ("allroots", "pointer/with", 24, "7090d0e02482f2d5e7d2eafd59778edd", 0, 7);
    ("allroots", "pointer/ptr", 24, "7090d0e02482f2d5e7d2eafd59778edd", 0, 7);
    ("bc", "modref/without", 24, "5e80ce9d06a62850f178378a97e900c5", 0, 18);
    ("bc", "modref/with", 24, "b62492e5edee15c9a570f23263a277ec", 0, 21);
    ("bc", "modref/ptr", 24, "b62492e5edee15c9a570f23263a277ec", 0, 21);
    ("bc", "pointer/without", 24, "14d62c3d695cce2f0301f5c5dab0696a", 0, 18);
    ("bc", "pointer/with", 24, "8d39d49be535c7593090f84035e7dd22", 0, 25);
    ("bc", "pointer/ptr", 24, "8d39d49be535c7593090f84035e7dd22", 0, 25);
    ("go", "modref/without", 24, "b420a4f43c711b568da29bb36864bceb", 0, 34);
    ("go", "modref/with", 24, "8cc27df0b946a7a655e1eab64321d718", 0, 34);
    ("go", "modref/ptr", 24, "8cc27df0b946a7a655e1eab64321d718", 0, 34);
    ("go", "pointer/without", 24, "b420a4f43c711b568da29bb36864bceb", 0, 34);
    ("go", "pointer/with", 24, "8cc27df0b946a7a655e1eab64321d718", 0, 34);
    ("go", "pointer/ptr", 24, "8cc27df0b946a7a655e1eab64321d718", 0, 34);
    ("bison", "modref/without", 24, "374280bdc425df7a171f971e159321aa", 0, 26);
    ("bison", "modref/with", 24, "424485c128d7fe0a10e192dbefe03d87", 0, 31);
    ("bison", "modref/ptr", 24, "424485c128d7fe0a10e192dbefe03d87", 0, 31);
    ("bison", "pointer/without", 24, "374280bdc425df7a171f971e159321aa", 0, 26);
    ("bison", "pointer/with", 24, "424485c128d7fe0a10e192dbefe03d87", 0, 31);
    ("bison", "pointer/ptr", 24, "424485c128d7fe0a10e192dbefe03d87", 0, 31);
    ("gzip(enc)", "modref/without", 24, "bb9c242d6236383e8a3f65a0b6d8e3ff", 0, 22);
    ("gzip(enc)", "modref/with", 24, "b480a6879415f3b914183dcfab77366c", 0, 25);
    ("gzip(enc)", "modref/ptr", 24, "b480a6879415f3b914183dcfab77366c", 0, 25);
    ("gzip(enc)", "pointer/without", 24, "bb9c242d6236383e8a3f65a0b6d8e3ff", 0, 22);
    ("gzip(enc)", "pointer/with", 24, "b480a6879415f3b914183dcfab77366c", 0, 25);
    ("gzip(enc)", "pointer/ptr", 24, "b480a6879415f3b914183dcfab77366c", 0, 25);
    ("gzip(dec)", "modref/without", 24, "6c75575b5999311c09e9cb10bc6569c1", 0, 18);
    ("gzip(dec)", "modref/with", 24, "934539cf19739efc87cf7cba033cb110", 0, 28);
    ("gzip(dec)", "modref/ptr", 24, "934539cf19739efc87cf7cba033cb110", 0, 28);
    ("gzip(dec)", "pointer/without", 24, "6c75575b5999311c09e9cb10bc6569c1", 0, 18);
    ("gzip(dec)", "pointer/with", 24, "934539cf19739efc87cf7cba033cb110", 0, 28);
    ("gzip(dec)", "pointer/ptr", 24, "934539cf19739efc87cf7cba033cb110", 0, 28);
    ("ptrsum", "modref/without", 24, "f80c1d3f5e047624478ddd45d5bddeb5", 0, 23);
    ("ptrsum", "modref/with", 24, "f80c1d3f5e047624478ddd45d5bddeb5", 0, 23);
    ("ptrsum", "modref/ptr", 24, "f80c1d3f5e047624478ddd45d5bddeb5", 0, 23);
    ("ptrsum", "pointer/without", 24, "8cd3558d29c920f75b9441b13a969521", 0, 23);
    ("ptrsum", "pointer/with", 24, "8cd3558d29c920f75b9441b13a969521", 0, 23);
    ("ptrsum", "pointer/ptr", 24, "cbbe9b66a288f59665030f502383d3a0", 0, 25);
    ("stride", "modref/without", 24, "31354b7d310c06d5c21abd8d42c1d21d", 0, 25);
    ("stride", "modref/with", 24, "31354b7d310c06d5c21abd8d42c1d21d", 0, 25);
    ("stride", "modref/ptr", 24, "31354b7d310c06d5c21abd8d42c1d21d", 0, 25);
    ("stride", "pointer/without", 24, "bd87a5f3c678ae160dc492386c64cda7", 0, 25);
    ("stride", "pointer/with", 24, "bd87a5f3c678ae160dc492386c64cda7", 0, 25);
    ("stride", "pointer/ptr", 24, "42eea1fb4e62414144f1f10644d6d8a9", 0, 27);
    ("ptrchase", "modref/without", 24, "e0fefc1a8a8c7d4eb1bff24c9634d1f6", 0, 15);
    ("ptrchase", "modref/with", 24, "e0fefc1a8a8c7d4eb1bff24c9634d1f6", 0, 15);
    ("ptrchase", "modref/ptr", 24, "e0fefc1a8a8c7d4eb1bff24c9634d1f6", 0, 15);
    ("ptrchase", "pointer/without", 24, "a5c8b0a459df2c98737e6a716aace56b", 0, 15);
    ("ptrchase", "pointer/with", 24, "a5c8b0a459df2c98737e6a716aace56b", 0, 15);
    ("ptrchase", "pointer/ptr", 24, "a5c8b0a459df2c98737e6a716aace56b", 0, 15);
    ("triad", "modref/without", 24, "9f5eb033b8fa581dadcdeea8c7c9e101", 0, 21);
    ("triad", "modref/with", 24, "7fb7f8b7bb4ee73d34539365790e0a1e", 0, 27);
    ("triad", "modref/ptr", 24, "7fb7f8b7bb4ee73d34539365790e0a1e", 0, 27);
    ("triad", "pointer/without", 24, "9f5eb033b8fa581dadcdeea8c7c9e101", 0, 21);
    ("triad", "pointer/with", 24, "7fb7f8b7bb4ee73d34539365790e0a1e", 0, 27);
    ("triad", "pointer/ptr", 24, "7fb7f8b7bb4ee73d34539365790e0a1e", 0, 27);
    ("water", "modref/with", 4, "b3591fd5a97a38d818332ea5283ef719", 45, 171);
    ("water", "modref/with", 6, "5020179318de9d4f9c649e91d0c1f693", 43, 175);
    ("water", "modref/with", 12, "25c8f789615e8139446abb42e9b13cc7", 39, 135);
    ("water", "modref/with", 16, "2e4e81487be497d0dbeb1f892a9210b3", 35, 118);
    ("water", "modref/with", 24, "a4110c4ac2898ecd5cdf7c95423ede37", 30, 105);
    ("water", "modref/with", 32, "81e2b228ffd7e5499efbbffb9a771b24", 15, 23);
  ]

(* Allocation rounds under very tight k, from the IL the pipeline hands the
   allocator: (k, whole water program summed over its functions, water's
   [kick] alone). *)
let golden_rounds = [ (4, 6, 3); (6, 5, 3) ]

let golden_row (prog, cfg_name, k, digest, spilled, coalesced) =
  let src = (Rp_suite.Programs.find prog).Rp_suite.Programs.source in
  let config = { (List.assoc cfg_name Config.paper_grid) with Config.k } in
  let (p, s) = Pipeline.compile ~config src in
  let what = Printf.sprintf "%s %s k=%d" prog cfg_name k in
  Util.check Alcotest.(list (pair string string)) (what ^ " degraded") []
    s.Pipeline.degraded;
  Util.check Alcotest.string (what ^ " IL digest") digest
    (Digest.to_hex (Digest.string (Serial.write p)));
  Util.check Alcotest.int (what ^ " spilled") spilled s.Pipeline.spilled;
  Util.check Alcotest.int (what ^ " coalesced") coalesced s.Pipeline.coalesced

let golden_tests =
  List.map
    (fun (pr : Rp_suite.Programs.program) ->
      let name = pr.Rp_suite.Programs.name in
      Util.tc ("post-allocation IL is pinned: " ^ name) (fun () ->
          List.iter golden_row
            (List.filter
               (fun (prog, _, k, _, _, _) -> prog = name && k = 24)
               golden_cells)))
    Rp_suite.Programs.all
  @ [
      Util.tc "post-allocation IL is pinned: water k-sweep" (fun () ->
          List.iter golden_row
            (List.filter (fun (_, _, k, _, _, _) -> k <> 24) golden_cells));
      Util.tc "water and kick converge at k=4 and k=6 in the pinned rounds"
        (fun () ->
          let src = (Rp_suite.Programs.find "water").Rp_suite.Programs.source in
          let unallocated () =
            Util.compile ~config:{ Config.default with Config.regalloc = false }
              src
          in
          List.iter
            (fun (k, prog_rounds, kick_rounds) ->
              let st = RA.alloc_program ~k (unallocated ()) in
              Util.check Alcotest.int
                (Printf.sprintf "water rounds at k=%d" k)
                prog_rounds st.RA.rounds;
              let p = unallocated () in
              let st = RA.alloc_func p ~k (Program.func p "kick") in
              Util.check Alcotest.int
                (Printf.sprintf "kick rounds at k=%d" k)
                kick_rounds st.RA.rounds)
            golden_rounds);
    ]

let () =
  Alcotest.run "regalloc"
    [
      ("respect_k", respect_k_tests);
      ("semantics", semantics_tests);
      ("spills", spill_tests);
      ("stats", stats_tests);
      ("coalescing", coalesce_tests);
      ("recursion", recursion_tests);
      ("golden", golden_tests);
    ]
