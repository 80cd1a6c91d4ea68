(** dm-crypt: transparent block-level encryption (aes-cbc-essiv).

    Wraps a lower [Blockio] target; every 512-byte sector is CBC
    encrypted under the volume key with an ESSIV per-sector IV.  The
    module makes exactly the paper's three calls into the crypto
    layer — one [set_key], plus [encrypt]/[decrypt] per I/O (§7,
    Securing Persistent State) — through the [Crypto_api], so whether
    the cipher is the generic DRAM one or AES_On_SoC is decided purely
    by registration priority. *)

open Sentry_crypto

type t = {
  lower : Blockio.t;
  cipher : Crypto_api.impl;
  essiv : Essiv.t;
  mutable sectors_encrypted : int;
  mutable sectors_decrypted : int;
}

let sector = Block_dev.sector_size

(** [create ~api ~key lower] opens an encrypted mapping over [lower]
    through the highest-priority implementation of "cbc(aes)", with
    ESSIV IVs derived from [key]. *)
let create ~api ~key lower =
  let cipher = Crypto_api.find api ~algorithm:"cbc(aes)" in
  cipher.Crypto_api.set_key key;
  { lower; cipher; essiv = Essiv.create ~key; sectors_encrypted = 0; sectors_decrypted = 0 }

let cipher_name t = t.cipher.Crypto_api.name

let iv_for t idx = Essiv.iv t.essiv ~sector:idx

(* dm-crypt holds no clock: spans use the recorder's installed time
   source, which Sentry points at the machine clock. *)
let trace_sector t name idx f =
  if Sentry_obs.Trace.on () then begin
    let start_ns = Sentry_obs.Trace.now () in
    let r = f () in
    Sentry_obs.Trace.span ~cat:Sentry_obs.Event.Crypto ~subsystem:"kernel.dm_crypt" ~start_ns
      ~end_ns:(Sentry_obs.Trace.now ())
      ~args:
        [
          ("sector", Sentry_obs.Event.Int idx);
          ("cipher", Sentry_obs.Event.Str t.cipher.Crypto_api.name);
        ]
      name;
    r
  end
  else f ()

let read_sector t idx =
  (* fault hook: a reset mid-sector leaves the sector unread; the
     on-disk image is untouched (sector ops are atomic at the target) *)
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.dm_crypt_sector;
  trace_sector t "decrypt-sector" idx (fun () ->
      let ct = Blockio.read t.lower ~off:(idx * sector) ~len:sector in
      t.sectors_decrypted <- t.sectors_decrypted + 1;
      t.cipher.Crypto_api.decrypt ~iv:(iv_for t idx) ct)

let write_sector t idx plain =
  assert (Bytes.length plain = sector);
  (* fault hook fires before the transform: an interrupted write
     reaches the lower target either fully encrypted or not at all *)
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.dm_crypt_sector;
  trace_sector t "encrypt-sector" idx (fun () ->
      t.sectors_encrypted <- t.sectors_encrypted + 1;
      let ct = t.cipher.Crypto_api.encrypt ~iv:(iv_for t idx) plain in
      Blockio.write t.lower ~off:(idx * sector) ct)

(** The decrypted view as a [Blockio] target.  Unaligned accesses use
    read-modify-write at sector granularity, like the real dm target. *)
let target t =
  let size = t.lower.Blockio.size in
  let read ~off ~len =
    let out = Bytes.create len in
    let first = off / sector and last = (off + len - 1) / sector in
    for idx = first to last do
      let plain = read_sector t idx in
      let sec_start = idx * sector in
      let copy_from = max off sec_start in
      let copy_to = min (off + len) (sec_start + sector) in
      Bytes.blit plain (copy_from - sec_start) out (copy_from - off) (copy_to - copy_from)
    done;
    out
  in
  let write ~off b =
    let len = Bytes.length b in
    let first = off / sector and last = (off + len - 1) / sector in
    for idx = first to last do
      let sec_start = idx * sector in
      let copy_from = max off sec_start in
      let copy_to = min (off + len) (sec_start + sector) in
      let plain =
        if copy_to - copy_from = sector then Bytes.sub b (copy_from - off) sector
        else begin
          (* partial sector: read-modify-write *)
          let plain = read_sector t idx in
          Bytes.blit b (copy_from - off) plain (copy_from - sec_start) (copy_to - copy_from);
          plain
        end
      in
      write_sector t idx plain
    done
  in
  { Blockio.name = "dm-crypt"; size; read; write }

let stats t = (t.sectors_encrypted, t.sectors_decrypted)
