(** The "generic AES" of the paper: a stock software cipher whose
    context — key schedule included — is allocated in DRAM, with no
    register or interrupt discipline.

    This is the insecure baseline every attack experiment targets:
    its key schedule is findable in a post-cold-boot DRAM image and
    its table accesses are bus-observable.  Functionally it is the
    same FIPS-validated cipher as everything else. *)

open Sentry_soc

type t = {
  machine : Machine.t;
  ctx_base : int; (* DRAM address of the cipher context *)
  mutable block : Aes_block.t option;
  mutable schedule : Aes.key option; (* host-side, for the bulk path *)
  variant : Perf.variant;
  uncached : bool;
}

(** [create machine ~ctx_base ~variant] places the context at a DRAM
    address (typically from the kernel heap).  [uncached] forces all
    context accesses onto the external bus — the worst case a bus
    monitor hopes for (freshly rebooted device, cold caches). *)
let create ?(uncached = false) machine ~ctx_base ~variant =
  if not (Machine.in_dram machine ctx_base) then
    invalid_arg "Generic_aes.create: context must be in DRAM";
  { machine; ctx_base; block = None; schedule = None; variant; uncached }

let accessor t =
  if t.uncached then Accessor.machine_uncached t.machine ~base:t.ctx_base
  else Accessor.machine t.machine ~base:t.ctx_base

let set_key t key =
  (* Key expansion writes the full schedule into DRAM — exactly what
     the cold-boot key-schedule scanner looks for. *)
  t.block <- Some (Aes_block.init (accessor t) ~key);
  t.schedule <- Some (Aes.expand key)

let require_block t =
  match t.block with
  | Some b -> b
  | None -> failwith "Generic_aes: set_key not called"

(** Instrumented single-block/CBC path: all state through DRAM.
    Sensitive round state is also live in CPU registers with no IRQ
    discipline — a context switch spills it. *)
let encrypt_instrumented t ~iv data =
  let b = require_block t in
  Cpu.load_regs (Machine.cpu t.machine) ~taint:Taint.Public (b.Aes_block.acc.Accessor.load 0 64);
  Aes_block.set_iv b iv;
  Mode.cbc_encrypt (Aes_block.cipher b) ~iv data

(** Bulk path: native transform + modeled cost; registers still carry
    key material (unprotected), and the schedule is still in DRAM. *)
let bulk t ~(dir : [ `Encrypt | `Decrypt ]) ~iv data =
  let k = match t.schedule with Some k -> k | None -> failwith "Generic_aes: no key" in
  let b = require_block t in
  Cpu.load_regs (Machine.cpu t.machine) ~taint:Taint.Public (b.Aes_block.acc.Accessor.load 0 64);
  Perf.charge t.machine t.variant ~bytes:(Bytes.length data);
  Aes.cbc k ~dir ~iv data

(** Register with a [Crypto_api] at the stock (low) priority. *)
let register t api =
  Crypto_api.register api
    {
      Crypto_api.name = "aes-generic";
      algorithm = "cbc(aes)";
      priority = 100;
      set_key = set_key t;
      encrypt = (fun ~iv data -> bulk t ~dir:`Encrypt ~iv data);
      decrypt = (fun ~iv data -> bulk t ~dir:`Decrypt ~iv data);
    }

(** XTS flavour of the stock cipher (dm-crypt's modern default).  The
    32-byte key's expanded schedules land in DRAM just like the CBC
    flavour's; the IV argument carries the 16-byte tweak block. *)
let register_xts t api =
  let xts_key = ref None in
  Crypto_api.register api
    {
      Crypto_api.name = "aes-generic-xts";
      algorithm = "xts(aes)";
      priority = 100;
      set_key =
        (fun key ->
          (* both halves' schedules written into the DRAM context, so
             the cold-boot scanner finds them like any other *)
          set_key t (Bytes.sub key 0 16);
          xts_key := Some (Xts.expand key));
      encrypt =
        (fun ~iv data ->
          let k = match !xts_key with Some k -> k | None -> failwith "xts: no key" in
          Perf.charge t.machine t.variant ~bytes:(Bytes.length data);
          Xts.encrypt k ~tweak:iv data);
      decrypt =
        (fun ~iv data ->
          let k = match !xts_key with Some k -> k | None -> failwith "xts: no key" in
          Perf.charge t.machine t.variant ~bytes:(Bytes.length data);
          Xts.decrypt k ~tweak:iv data);
    }
