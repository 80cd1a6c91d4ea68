(** Attack lab: every in-scope memory attack against every storage
    option, plus the bus-monitor AES side channel end to end.

    Run with: [dune exec examples/attack_lab.exe] *)

open Sentry_util
open Sentry_soc
open Sentry_crypto
open Sentry_core
open Sentry_attacks

let matrix () =
  print_endline "== Table-3 style matrix (every cell is a mounted attack) ==";
  List.iter
    (fun (attack, storage, safe) ->
      Printf.printf "  %-16s vs %-18s : %s\n" (Verdict.attack_name attack)
        (Verdict.storage_name storage)
        (if safe then "Safe" else "UNSAFE"))
    (Verdict.matrix ())

(* The §3.1 side channel: recover an AES key by watching the memory
   bus while a generic (DRAM-resident, uncached) cipher encrypts one
   known-plaintext block. *)
let first_round_attack () =
  print_endline "\n== Bus-monitor first-round key recovery (generic AES in DRAM) ==";
  let system = System.boot `Tegra3 ~seed:404 in
  let machine = System.machine system in
  let key = Prng.bytes (Machine.prng machine) 16 in
  let frame = Sentry_kernel.Frame_alloc.alloc system.System.frames in
  let victim = Generic_aes.create ~uncached:true machine ~ctx_base:frame ~variant:Perf.Openssl_user in
  Generic_aes.set_key victim key;
  let layout = Aes_state.layout Aes_key.Aes_128 in
  let te_base = frame + (Aes_state.find layout "round_table_te").Aes_state.offset in
  let monitor = Bus_monitor.attach machine in
  let plaintext = Bytes.of_string "known plaintext!" in
  ignore (Generic_aes.encrypt_instrumented victim ~iv:(Bytes.make 16 '\000') plaintext);
  (match Bus_monitor.recover_key_first_round monitor ~table_base:te_base ~plaintext with
  | Some k ->
      Printf.printf "  victim key:    %s\n  recovered key: %s  (match: %b)\n" (Hex.encode key)
        (Hex.encode k) (Bytes.equal k key)
  | None -> print_endline "  recovery failed");
  Bus_monitor.detach monitor

(* The same attack against AES_On_SoC: the probe sees nothing. *)
let onsoc_resists () =
  print_endline "\n== Same side channel vs AES_On_SoC (locked L2) ==";
  let system = System.boot `Tegra3 ~seed:405 in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let aes = Sentry.aes sentry in
  let monitor = Bus_monitor.attach machine in
  ignore (Aes_on_soc.encrypt aes ~iv:(Bytes.make 16 '\000') (Bytes.of_string "known plaintext!"));
  Printf.printf "  bus transactions observed during the encryption: %d\n"
    (Bus_monitor.transaction_count monitor);
  Bus_monitor.detach monitor

(* Register-spill leak: preempting a cipher that keeps key material in
   registers with IRQs enabled plants it on the kernel stack. *)
let spill_demo () =
  print_endline "\n== Context-switch register spill (why the IRQ bracket exists) ==";
  let system = System.boot `Tegra3 ~seed:406 in
  let machine = System.machine system in
  let proc = System.spawn system ~name:"victim" ~bytes:8192 in
  let other = System.spawn system ~name:"other" ~bytes:8192 in
  ignore other;
  let key_material = Bytes.of_string "0123456789abcdef0123456789abcdef" in
  (* make the victim the running task, then preempt it mid-cipher *)
  Sentry_kernel.Sched.tick system.System.sched;
  Cpu.load_regs (Machine.cpu machine) ~taint:Taint.Public key_material;
  Sentry_kernel.Sched.tick system.System.sched;
  let on_stack =
    Bytes_util.contains
      (Machine.read_uncached machine proc.Sentry_kernel.Process.kstack 64)
      (Bytes.sub key_material 0 16)
  in
  Printf.printf "  generic cipher: key material on the kernel stack after a tick: %b\n" on_stack;
  (* AES_On_SoC bracket: the same preemption cannot fire *)
  Cpu.with_irqs_off (Machine.cpu machine) (fun () ->
      Cpu.load_regs (Machine.cpu machine) ~taint:Taint.Public key_material;
      Sentry_kernel.Sched.tick system.System.sched (* masked: no-op *));
  Printf.printf "  registers after onsoc_enable_irq(): all zero: %b\n"
    (Bytes_util.is_zero (Cpu.regs_snapshot (Machine.cpu machine)))

let () =
  matrix ();
  first_round_attack ();
  onsoc_resists ();
  spill_demo ();
  print_endline "\nattack_lab OK"
