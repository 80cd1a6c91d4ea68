(** Per-page encryption under the volatile root key.

    Every 4 KB page is CBC-encrypted with a per-page ESSIV-style IV
    derived from (pid, vpn), so identical pages get distinct
    ciphertexts and pages can be decrypted independently and lazily.
    All transforms go through [Aes_on_soc]; the only cipher state in
    play lives on-SoC. *)

open Sentry_soc
open Sentry_crypto
open Sentry_kernel

type t = {
  machine : Machine.t;
  aes : Aes_on_soc.t;
  engine : Offload_engine.t; (* MemShield-style command queue (Offload backend) *)
  mutable essiv : Essiv.t; (* replaced when recovery re-keys after power loss *)
  page_buf : Bytes.t; (* reused staging buffer for the frame paths *)
  iv_buf : Bytes.t; (* reused IV buffer for the batch paths *)
  mutable bytes_encrypted : int;
  mutable bytes_decrypted : int;
}

let create machine ~aes ~volatile_key =
  {
    machine;
    aes;
    engine = Offload_engine.create machine;
    essiv = Essiv.create ~key:volatile_key;
    page_buf = Bytes.create Page.size;
    iv_buf = Bytes.create 16;
    bytes_encrypted = 0;
    bytes_decrypted = 0;
  }

let machine t = t.machine
let engine t = t.engine

(** [rekey t ~volatile_key] — rebuild the per-page IV derivation under
    a fresh volatile key (crash recovery: the old key died with the
    power).  The AES context itself is re-keyed separately via
    [Aes_on_soc.set_key]; this [t] (and every reference to it, e.g.
    the background pager's) stays valid. *)
let rekey t ~volatile_key = t.essiv <- Essiv.create ~key:volatile_key

(** IV for page [vpn] of process [pid]. *)
let iv t ~pid ~vpn = Essiv.iv t.essiv ~sector:((pid lsl 24) lxor vpn)

let encrypt_bytes t ~pid ~vpn data =
  t.bytes_encrypted <- t.bytes_encrypted + Bytes.length data;
  Aes_on_soc.bulk t.aes ~dir:`Encrypt ~iv:(iv t ~pid ~vpn) data

let decrypt_bytes t ~pid ~vpn data =
  t.bytes_decrypted <- t.bytes_decrypted + Bytes.length data;
  Aes_on_soc.bulk t.aes ~dir:`Decrypt ~iv:(iv t ~pid ~vpn) data

let trace_frame t name ~pid ~vpn ~frame =
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit
      ~ts:(Clock.now (Machine.clock t.machine))
      ~cat:Sentry_obs.Event.Crypto ~subsystem:"core.page_crypt" name
      ~args:
        [
          ("pid", Sentry_obs.Event.Int pid);
          ("vpn", Sentry_obs.Event.Int vpn);
          ("frame", Sentry_obs.Event.Int frame);
        ]

(** Encrypt a frame in place (the reference lock walk).  The
    ciphertext replaces the plaintext through the cached path; the
    lock sequence ends with a masked L2 flush so no plaintext survives
    in unlocked ways.  Passing through the cipher declassifies: the
    frame's bytes are re-labelled [Ciphertext]. *)
let encrypt_frame ?(commit = fun () -> ()) t ~pid ~vpn ~frame =
  trace_frame t "encrypt-frame" ~pid ~vpn ~frame;
  Machine.read_into t.machine frame t.page_buf ~off:0 ~len:Page.size;
  t.bytes_encrypted <- t.bytes_encrypted + Page.size;
  (* fault hook: a reset here dies mid-call — the frame is still
     cleartext in memory (the staging buffer is not addressable), so
     recovery's re-encryption of this unflagged page is idempotent *)
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.frame_transform;
  (* in place over the staging buffer: read, transform, write back *)
  Aes_on_soc.bulk_into t.aes ~dir:`Encrypt ~iv:(iv t ~pid ~vpn) ~src:t.page_buf ~src_off:0
    ~dst:t.page_buf ~dst_off:0 ~len:Page.size;
  Machine.write_labelled t.machine Taint.Ciphertext frame t.page_buf ~off:0 ~len:Page.size;
  (* the caller's commit (PTE flag + journal record) belongs to the
     same crash unit as the write-back: it must land before the
     page-boundary fault hook, or a crash at the hook would leave
     this frame as ciphertext that the PTE still calls cleartext —
     and the recovery sweep (keyed off PTE bits) would encrypt it a
     second time, garbling the page for good *)
  commit ();
  (* fault hook: power loss after the Nth encrypted page fires here —
     ciphertext, PTE flag and journal record have all committed *)
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_encrypted

(** Decrypt a frame in place (the reference unlock walks and their
    lazy handler); the recovered bytes are secret cleartext again. *)
let decrypt_frame t ~pid ~vpn ~frame =
  trace_frame t "decrypt-frame" ~pid ~vpn ~frame;
  Machine.read_into t.machine frame t.page_buf ~off:0 ~len:Page.size;
  t.bytes_decrypted <- t.bytes_decrypted + Page.size;
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.frame_transform;
  Aes_on_soc.bulk_into t.aes ~dir:`Decrypt ~iv:(iv t ~pid ~vpn) ~src:t.page_buf ~src_off:0
    ~dst:t.page_buf ~dst_off:0 ~len:Page.size;
  Machine.write_labelled t.machine Taint.Secret_cleartext frame t.page_buf ~off:0 ~len:Page.size;
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_decrypted

(* ------------------------- batch engine -------------------------- *)

(** One page of a batched lock/unlock pass; [frame] is the physical
    frame address.  The caller sorts items by frame so the walk sweeps
    DRAM (and the physically-indexed L2) monotonically. *)
type batch_item = { pid : int; vpn : int; frame : int }

(* One page transform, shared by the batch walks and the lazy fault.
   The per-page op sequence — trace, cached read, counter, fault
   hooks, cipher, tainted write-back — replicates
   [encrypt_frame]/[decrypt_frame] {e exactly}, so the simulated state
   evolution per page is identical; only the host-side machinery
   around it differs (run-granule memory path, reused IV buffer,
   fused cipher kernel).  The backend picks who pays for the cipher:
   [Offload] runs the same kernel uncharged ([bulk_fused_raw]) and
   submits the page as a command to the [Offload_engine] queue; every
   other backend charges the CPU inside the IRQ bracket.  Bytes, PTEs
   and taint are bit-identical either way. *)
let transform_page ~(backend : Backend.kind) t ~(dir : [ `Encrypt | `Decrypt ]) ~pid ~vpn ~frame =
  trace_frame t (match dir with `Encrypt -> "encrypt-frame" | `Decrypt -> "decrypt-frame") ~pid
    ~vpn ~frame;
  Machine.read_into t.machine frame t.page_buf ~off:0 ~len:Page.size;
  (match dir with
  | `Encrypt -> t.bytes_encrypted <- t.bytes_encrypted + Page.size
  | `Decrypt -> t.bytes_decrypted <- t.bytes_decrypted + Page.size);
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.frame_transform;
  Essiv.iv_into t.essiv ~sector:((pid lsl 24) lxor vpn) t.iv_buf 0;
  (match backend with
  | Backend.Offload ->
      Aes_on_soc.bulk_fused_raw t.aes ~dir ~iv:t.iv_buf ~iv_off:0 ~src:t.page_buf ~src_off:0
        ~dst:t.page_buf ~dst_off:0 ~len:Page.size;
      Offload_engine.submit t.engine ~bytes:Page.size
  | Backend.Batched | Backend.No_access ->
      Aes_on_soc.bulk_fused_into t.aes ~dir ~iv:t.iv_buf ~iv_off:0 ~src:t.page_buf ~src_off:0
        ~dst:t.page_buf ~dst_off:0 ~len:Page.size);
  let level = match dir with `Encrypt -> Taint.Ciphertext | `Decrypt -> Taint.Secret_cleartext in
  Machine.write_labelled t.machine level frame t.page_buf ~off:0 ~len:Page.size

(* The [Offload] queue is polled for completion once, after the last
   page of a batch: the fixed per-command latency is amortized over
   the batch.  The CPU backends have nothing to wait for. *)
let complete_commands ~(backend : Backend.kind) t =
  match backend with
  | Backend.Offload -> Offload_engine.flush t.engine
  | Backend.Batched | Backend.No_access -> ()

let with_batch_span ~(backend : Backend.kind) t name items f =
  let traced = Sentry_obs.Trace.on () in
  if traced then
    Sentry_obs.Trace.enter_span
      ~ts:(Clock.now (Machine.clock t.machine))
      ~cat:Sentry_obs.Event.Crypto ~subsystem:"core.page_crypt"
      (match backend with
      | Backend.Offload -> name ^ "-offload"
      | Backend.Batched | Backend.No_access -> name);
  f ();
  complete_commands ~backend t;
  if traced then
    Sentry_obs.Trace.exit_span
      ~ts:(Clock.now (Machine.clock t.machine))
      ~args:[ ("pages", Sentry_obs.Event.Int (Array.length items)) ]
      ()

(** [encrypt_batch ~backend t items ~complete] — the lock path's
    batch engine: encrypt every item's frame in place, calling
    [complete i] immediately after item [i]'s ciphertext lands and
    {e before} the [page_encrypted] fault hook — the caller flips the
    PTE and journals there, matching [encrypt_frame]'s [?commit] slot,
    so a crash at any page boundary leaves every ciphertext page
    flagged and recovery's PTE-keyed roll-forward idempotent. *)
let encrypt_batch ~backend t items ~complete =
  with_batch_span ~backend t "encrypt-batch" items (fun () ->
      Array.iteri
        (fun i item ->
          transform_page ~backend t ~dir:`Encrypt ~pid:item.pid ~vpn:item.vpn ~frame:item.frame;
          complete i;
          Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_encrypted)
        items)

(** [decrypt_batch ~backend t items ~prepare ~complete] — the unlock
    twin: [prepare i] runs {e before} item [i] is touched (the caller
    clears the PTE's encrypted bit there — fail-secure: a crash
    mid-transform re-encrypts on recovery), [complete i] after the
    cleartext lands. *)
let decrypt_batch ~backend t items ~prepare ~complete =
  with_batch_span ~backend t "decrypt-batch" items (fun () ->
      Array.iteri
        (fun i item ->
          prepare i;
          transform_page ~backend t ~dir:`Decrypt ~pid:item.pid ~vpn:item.vpn ~frame:item.frame;
          Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_decrypted;
          complete i)
        items)

(** [decrypt_page ~backend t ~pid ~vpn ~frame] — the lazy fault's
    single-page decrypt: one batch transform, then (under [Offload]) a
    blocking completion poll that pays the engine's full fixed
    latency, then the [page_decrypted] fault hook. *)
let decrypt_page ~backend t ~pid ~vpn ~frame =
  transform_page ~backend t ~dir:`Decrypt ~pid ~vpn ~frame;
  complete_commands ~backend t;
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_decrypted

let counters t = (t.bytes_encrypted, t.bytes_decrypted)

let reset_counters t =
  t.bytes_encrypted <- 0;
  t.bytes_decrypted <- 0
