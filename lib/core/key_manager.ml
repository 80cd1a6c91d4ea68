(** Root keys, resident on-SoC (§7, Bootstrapping).

    The volatile key (memory pages) is generated per boot and written
    only to on-SoC storage; the persistent key (disk) is derived from
    the boot password and the fuse secret inside TrustZone and also
    parked on-SoC.  Host-side copies handed to cipher constructors are
    outside the simulated address space and invisible to the modeled
    attacks — what matters is that no simulated DRAM ever holds them. *)

open Sentry_soc
open Sentry_crypto

type t = {
  machine : Machine.t;
  onsoc : Onsoc.t;
  volatile_addr : int;
  mutable persistent_addr : int option;
}

let key_len = Key_derive.key_len

(** [create machine onsoc] generates and parks the volatile key. *)
let create machine onsoc =
  let volatile_addr = Onsoc.alloc onsoc ~bytes:key_len in
  let key = Key_derive.volatile_key machine in
  Machine.with_taint machine Taint.Secret_cleartext (fun () ->
      Machine.write machine volatile_addr key);
  { machine; onsoc; volatile_addr; persistent_addr = None }

(** Read the volatile key back from on-SoC storage. *)
let volatile_key t = Machine.read t.machine t.volatile_addr key_len

(** Generate a fresh volatile key and park it at the same on-SoC
    address (crash recovery: the old key was lost with power).  Pages
    encrypted under the old key stay garbage — that is the fail-secure
    outcome; recovery re-encrypts under this key. *)
let regenerate_volatile t =
  let key = Key_derive.volatile_key t.machine in
  Machine.with_taint t.machine Taint.Secret_cleartext (fun () ->
      Machine.write t.machine t.volatile_addr key);
  key

(** Derive the persistent key from the boot password (TrustZone +
    fuse) and park it on-SoC. *)
let unlock_persistent t ~password =
  let key = Key_derive.persistent_key t.machine ~password in
  let addr =
    match t.persistent_addr with
    | Some a -> a
    | None ->
        let a = Onsoc.alloc t.onsoc ~bytes:key_len in
        t.persistent_addr <- Some a;
        a
  in
  Machine.with_taint t.machine Taint.Secret_cleartext (fun () ->
      Machine.write t.machine addr key);
  key

let persistent_key t =
  match t.persistent_addr with
  | None -> None
  | Some a -> Some (Machine.read t.machine a key_len)

(** Wipe both keys from on-SoC storage (the overwrite is public). *)
let wipe t =
  Machine.write t.machine t.volatile_addr (Bytes.make key_len '\xff');
  Option.iter (fun a -> Machine.write t.machine a (Bytes.make key_len '\xff')) t.persistent_addr
