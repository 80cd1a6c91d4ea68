(** Per-page encryption under the volatile root key, with ESSIV-style
    per-(pid, vpn) IVs.  All transforms go through [Aes_on_soc]. *)

open Sentry_soc

type t

val create : Machine.t -> aes:Sentry_crypto.Aes_on_soc.t -> volatile_key:Bytes.t -> t

val machine : t -> Machine.t

(** The MemShield-style command queue behind the [Offload] backend
    (created with the [t]; idle unless a walk runs under [Offload]). *)
val engine : t -> Sentry_crypto.Offload_engine.t

(** Rebuild the IV derivation under a fresh volatile key (crash
    recovery after power loss); the [t] and every reference to it
    stay valid.  Re-key the AES context separately. *)
val rekey : t -> volatile_key:Bytes.t -> unit

(** Deterministic IV for page [vpn] of process [pid]. *)
val iv : t -> pid:int -> vpn:int -> Bytes.t

val encrypt_bytes : t -> pid:int -> vpn:int -> Bytes.t -> Bytes.t
val decrypt_bytes : t -> pid:int -> vpn:int -> Bytes.t -> Bytes.t

(** {2 Page-at-a-time reference}

    No backend runs these: they are the reference the batch engine is
    differentially tested against (and the building blocks of the
    reference walks [Encrypt_on_lock.run_per_page] and
    [Decrypt_on_unlock.run_per_page]). *)

(** Encrypt a physical frame in place through the cached path.
    [?commit] runs after the ciphertext write-back and {e before} the
    [page_encrypted] fault hook — flip the PTE and journal there, so
    a crash at the page boundary never leaves committed ciphertext
    that the PTE still calls cleartext (recovery would re-encrypt
    it: a double-encrypt that garbles the page). *)
val encrypt_frame : ?commit:(unit -> unit) -> t -> pid:int -> vpn:int -> frame:int -> unit

(** Decrypt a physical frame in place. *)
val decrypt_frame : t -> pid:int -> vpn:int -> frame:int -> unit

(** {2 Batch engine}

    One engine for every backend.  It transforms a pre-gathered,
    frame-sorted set of pages through one reused staging buffer, one
    reused IV buffer and the fused cipher kernel.  Each page's
    simulated op sequence (read, fault hooks, cipher, tainted
    write-back) is exactly [encrypt_frame]/[decrypt_frame]'s, so
    per-page observables are bit-identical; only host-side overhead
    changes.

    [~backend] decides who pays for the cipher.  Under [Offload] each
    page is a command submitted to the [Offload_engine] queue, and the
    queue is polled once at the end of the batch (trace span
    ["encrypt-batch-offload"]/["decrypt-batch-offload"]); under
    [Batched] and [No_access] the CPU is charged inside the IRQ
    bracket (["encrypt-batch"]/["decrypt-batch"]).  DRAM, PTE and
    taint evolution is the same either way; only time and energy
    differ. *)

(** One page of a batch; [frame] is the physical frame address. *)
type batch_item = { pid : int; vpn : int; frame : int }

(** Encrypt every item in order; [complete i] runs right after item
    [i]'s ciphertext lands and before its [page_encrypted] fault hook
    — flip the PTE and journal there (fail-secure {e and} idempotent
    ordering, as [encrypt_frame]'s [?commit]). *)
val encrypt_batch : backend:Backend.kind -> t -> batch_item array -> complete:(int -> unit) -> unit

(** Decrypt every item in order; [prepare i] fires before item [i] is
    read (clear the PTE's encrypted bit there — fail-secure), and
    [complete i] after the cleartext and the [page_decrypted] hook. *)
val decrypt_batch :
  backend:Backend.kind ->
  t ->
  batch_item array ->
  prepare:(int -> unit) ->
  complete:(int -> unit) ->
  unit

(** The lazy fault's single-page decrypt: the batch engine's page
    transform, then (under [Offload]) a blocking completion poll that
    pays the engine's full fixed latency, then the [page_decrypted]
    fault hook. *)
val decrypt_page : backend:Backend.kind -> t -> pid:int -> vpn:int -> frame:int -> unit

(** (bytes encrypted, bytes decrypted) since the last reset — the
    counters behind the Figs 2-4 "MBytes" series. *)
val counters : t -> int * int

val reset_counters : t -> unit
