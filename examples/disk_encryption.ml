(** Securing persistent state with dm-crypt + AES_On_SoC (§7).

    Two otherwise-identical encrypted volumes: one keyed through the
    stock (DRAM-resident) cipher, one through AES_On_SoC.  After a
    cold boot, the Halderman-style key-schedule scanner recovers the
    stock volume's key from the DRAM image — and finds nothing when
    the schedule lives on-SoC.

    Run with: [dune exec examples/disk_encryption.exe] *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core

(* Build a system with an encrypted volume; the cipher the Crypto API
   hands dm-crypt depends on whether Sentry is installed. *)
let build ~with_sentry =
  let system = System.boot `Tegra3 ~seed:(if with_sentry then 31 else 32) in
  let machine = System.machine system in
  let api, label =
    if with_sentry then begin
      (* Sentry registers AES_On_SoC at top priority in the registry *)
      ignore (Sentry.install system (Config.default `Tegra3));
      (system.System.crypto_api, "AES_On_SoC")
    end
    else begin
      let api = Sentry_crypto.Crypto_api.create () in
      let frame = Frame_alloc.alloc system.System.frames in
      let generic =
        Sentry_crypto.Generic_aes.create machine ~ctx_base:frame
          ~variant:Sentry_crypto.Perf.Crypto_api_kernel
      in
      Sentry_crypto.Generic_aes.register generic api;
      (api, "generic AES")
    end
  in
  let key = Prng.bytes (Prng.create ~seed:777) 16 in
  let dev = Block_dev.create machine ~kind:Block_dev.Emmc ~size:Units.mib in
  let dm = Dm_crypt.create ~api ~key (Block_dev.target dev) in
  (machine, dev, dm, key, label)

let () =
  List.iter
    (fun with_sentry ->
      let machine, dev, dm, key, label = build ~with_sentry in
      Printf.printf "--- volume keyed through %s (driver: %s) ---\n" label
        (Dm_crypt.cipher_name dm);
      (* write a file-system's worth of secrets *)
      let t = Dm_crypt.target dm in
      let secret = Bytes.of_string "[wallet.dat] balance=31337 BTC" in
      Blockio.write t ~off:4096 secret;
      let back = Blockio.read t ~off:4096 ~len:(Bytes.length secret) in
      assert (Bytes.equal back secret);
      (* the medium itself holds only ciphertext *)
      Printf.printf "  plaintext on raw flash: %b\n"
        (Bytes_util.contains (Block_dev.raw dev) secret);
      (* flush the caches (time passes), then cold-boot the device *)
      Pl310.flush_masked (Machine.l2 machine);
      let keys =
        Sentry_attacks.Cold_boot.(keys_of_image (image machine Os_reboot))
      in
      let got_key = List.exists (Bytes.equal key) keys in
      Printf.printf "  cold boot + key-schedule scan recovers the volume key: %b\n" got_key;
      if with_sentry then assert (not got_key) else assert got_key)
    [ false; true ];
  print_endline "disk_encryption OK"
