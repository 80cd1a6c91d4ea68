(** Isolated-call rungs: one public function each, timed in batches on
    a warm Tegra 3 system with Sentry installed.  Each rung reports
    the median over batches of host ns (and minor words) per call.
    The traced run uses them to split lock time into crypto, memory
    and the rest. *)

open Sentry_util
open Sentry_soc
open Sentry_kernel
open Sentry_core

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median ns and minor words per call over batches of [batch] calls,
   for at least [budget_s] and at least five batches. *)
let measure ~budget_s ~batch f =
  let deadline = Span.now_ns () + int_of_float (budget_s *. 1e9) in
  let rec go n acc =
    if n >= 5 && Span.now_ns () >= deadline then acc
    else begin
      let w0 = Gc.minor_words () in
      let t0 = Span.now_ns () in
      for _ = 1 to batch do
        f ()
      done;
      let ns = float_of_int (Span.now_ns () - t0) in
      let words = Gc.minor_words () -. w0 in
      go (n + 1) ((ns /. float_of_int batch, words /. float_of_int batch) :: acc)
    end
  in
  let xs = go 0 [] in
  (median (List.map fst xs), median (List.map snd xs))

(** [(name, unit, value)] for every rung, spending about [budget_s]
    on each; each rung is one span under [ctx]. *)
let run ctx ~budget_s =
  let measure name ~batch f = Span.run ctx name (fun _ -> measure ~budget_s ~batch f) in
  let system = System.boot `Tegra3 ~seed:1 ~pid_base:1 in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let machine = System.machine system in
  let aes = Sentry.aes sentry in
  let iv = Bytes.make 16 '\000' in
  let page = Bytes.make Page.size 'p' in
  let cbc_ns, cbc_words =
    measure "crypto.page_cbc" ~batch:64 (fun () ->
        Sentry_crypto.Aes_on_soc.bulk_fused_into aes ~dir:`Encrypt ~iv ~iv_off:0 ~src:page
          ~src_off:0 ~dst:page ~dst_off:0 ~len:Page.size)
  in
  let sector = Bytes.make Block_dev.sector_size 's' in
  let sector_ns, _ =
    measure "crypto.sector" ~batch:256 (fun () ->
        Sentry_crypto.Aes_on_soc.bulk_into aes ~dir:`Encrypt ~iv ~src:sector ~src_off:0 ~dst:sector
          ~dst_off:0 ~len:Block_dev.sector_size)
  in
  (* Page runs sweep 4 MiB of frames, more than the L2 holds, so most
     lines miss as they do in a lock walk. *)
  let frames = Array.init 1024 (fun _ -> Frame_alloc.alloc system.frames) in
  let next = ref 0 in
  let frame () =
    next := (!next + 1) mod Array.length frames;
    frames.(!next)
  in
  let read_run_ns, _ =
    measure "soc.read_run" ~batch:64 (fun () ->
        Machine.read_run_into machine (frame ()) page ~off:0 ~len:Page.size)
  in
  let write_run_ns, _ =
    measure "soc.write_run" ~batch:64 (fun () ->
        Machine.write_run_from machine (frame ()) page ~off:0 ~len:Page.size)
  in
  let line = Bytes.create 64 in
  let hit_addr = frames.(0) in
  let hit_ns, _ =
    measure "soc.read_line_hit" ~batch:1024 (fun () ->
        Machine.read_into machine hit_addr line ~off:0 ~len:64)
  in
  let miss_ns, _ =
    measure "soc.read_line_miss" ~batch:1024 (fun () ->
        Machine.read_into machine (frame () + 64 * (!next land 63)) line ~off:0 ~len:64)
  in
  let dev = Block_dev.create machine ~kind:Block_dev.Ramdisk ~size:Units.mib in
  let dm = Dm_crypt.create ~api:system.crypto_api ~key:(Bytes.make 16 'k') (Block_dev.target dev) in
  let nsectors = Block_dev.sectors dev in
  let s = ref 0 in
  let dm_ns, _ =
    measure "kernel.dmcrypt_sector" ~batch:64 (fun () ->
        s := (!s + 1) mod nsectors;
        Dm_crypt.write_sector dm !s sector;
        ignore (Dm_crypt.read_sector dm !s))
  in
  let create_ns, _ =
    measure "soc.machine_create" ~batch:1 (fun () -> ignore (Machine.create (Machine.tegra3 ())))
  in
  [
    ("crypto.page_cbc_ns", "ns", cbc_ns);
    ("crypto.page_cbc_minor_words", "words", cbc_words);
    ("crypto.sector_ns", "ns", sector_ns);
    ("soc.read_run_ns_per_page", "ns", read_run_ns);
    ("soc.write_run_ns_per_page", "ns", write_run_ns);
    ("soc.read_line_hit_ns", "ns", hit_ns);
    ("soc.read_line_miss_ns", "ns", miss_ns);
    ("kernel.dmcrypt_sector_us", "us", dm_ns /. 2e3);
    ("soc.machine_create_ms", "ms", create_ns /. 1e6);
  ]
