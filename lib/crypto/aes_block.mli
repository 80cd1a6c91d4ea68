(** Instrumented AES: the same cipher as [Aes] but with every piece of
    working state living in memory behind an [Accessor] — so that,
    memory-backed, table lookups produce observable, key-dependent
    addresses (the §3.1 bus side channel) unless the context is
    on-SoC.  Pinned by tests to byte-equality with [Aes]. *)

type t = {
  acc : Accessor.t;
  size : Aes_key.size;
  nr : int;
  off_input : int;
  off_key : int;
  off_round_index : int;
  off_round_keys : int;
  off_te : int;
  off_td : int;
  off_sbox : int;
  off_inv_sbox : int;
  off_rcon : int;
  off_block_index : int;
  off_ivec : int;
  mutable blocks_done : int;
}

(** Lay the full cipher context out behind the accessor: expands the
    key and writes tables, key and schedule into their
    [Aes_state] slots. *)
val init : Accessor.t -> key:Bytes.t -> t

(** Overwrite all secret and access-protected state with 0xFF. *)
val wipe : t -> unit

val encrypt_block : t -> Bytes.t -> int -> Bytes.t -> int -> unit
val decrypt_block : t -> Bytes.t -> int -> Bytes.t -> int -> unit

(** Mirror the CBC chaining vector into the context's public slot. *)
val set_iv : t -> Bytes.t -> unit

(** As a [Mode.cipher], so ECB/CBC/CTR come for free. *)
val cipher : t -> Mode.cipher

(** The permutation linking round-1 Te-lookup order to state byte
    positions — what the bus-monitor attack inverts. *)
val round1_lookup_order : int array
