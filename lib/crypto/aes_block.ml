(** Instrumented AES: the same cipher as [Aes], but every piece of
    working state — input block, key, round keys, round tables,
    S-boxes, Rcon, counters — lives in memory behind an [Accessor]
    and every access goes through it.

    With a [machine] accessor the state traverses the simulated memory
    hierarchy: if the context sits in DRAM, table lookups appear on the
    external bus with key-dependent addresses (the §3.1 side channel);
    if it sits in iRAM or a locked L2 way, nothing leaves the SoC.

    Intermediate round values are held in OCaml locals — the model's
    CPU registers.  Protecting those registers across interrupts is
    the job of [Aes_on_soc]'s IRQ bracket, not of this module.

    Correctness is pinned by tests to byte-equality with [Aes] (which
    itself is pinned to FIPS-197). *)

type t = {
  acc : Accessor.t;
  size : Aes_key.size;
  nr : int;
  (* cached field offsets *)
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

(** [init acc ~key] lays the full cipher context out behind [acc]:
    expands the key schedule and writes tables, key and schedule into
    their [Aes_state] slots. *)
let init acc ~key =
  let size = Aes_key.size_of_bytes (Bytes.length key) in
  let layout = Aes_state.layout size in
  let off name = (Aes_state.find layout name).Aes_state.offset in
  let t =
    {
      acc;
      size;
      nr = Aes_key.rounds size;
      off_input = off "input_block";
      off_key = off "key";
      off_round_index = off "round_index";
      off_round_keys = off "round_keys";
      off_te = off "round_table_te";
      off_td = off "round_table_td";
      off_sbox = off "sbox";
      off_inv_sbox = off "inv_sbox";
      off_rcon = off "rcon";
      off_block_index = off "block_index";
      off_ivec = off "cbc_ivec";
      blocks_done = 0;
    }
  in
  acc.Accessor.store t.off_key key;
  let schedule = Aes_key.serialize (Aes_key.expand key) in
  acc.Accessor.store t.off_round_keys schedule;
  acc.Accessor.store t.off_te Aes_tables.te_bytes;
  acc.Accessor.store t.off_td Aes_tables.td_bytes;
  acc.Accessor.store t.off_sbox Aes_tables.sbox_bytes;
  acc.Accessor.store t.off_inv_sbox Aes_tables.inv_sbox_bytes;
  acc.Accessor.store t.off_rcon Aes_tables.rcon_bytes;
  t

(** Erase all secret and access-protected state (the paper's "write
    0xFF in all sensitive data" unlock step). *)
let wipe t =
  let layout = Aes_state.layout t.size in
  List.iter
    (fun f ->
      match f.Aes_state.sensitivity with
      | Aes_state.Secret | Aes_state.Access_protected ->
          t.acc.Accessor.store f.Aes_state.offset (Bytes.make f.Aes_state.size '\xff')
      | Aes_state.Public -> ())
    layout

(* ------------------------- shared helpers ------------------------ *)

let load_state t off16 =
  let b = t.acc.Accessor.load off16 16 in
  Array.init 16 (fun i -> Char.code (Bytes.get b i))

let store_state t off16 s =
  let b = Bytes.create 16 in
  Array.iteri (fun i v -> Bytes.set b i (Char.chr v)) s;
  t.acc.Accessor.store off16 b

let round_key t r = t.acc.Accessor.load (t.off_round_keys + (16 * r)) 16

let add_round_key t s r =
  let rk = round_key t r in
  for i = 0 to 15 do
    s.(i) <- s.(i) lxor Char.code (Bytes.get rk i)
  done

(* Table entry x as a 4-int vector, read through the accessor: the
   address [off + 4x] is the observable side channel. *)
let table_entry t off x =
  let e = t.acc.Accessor.load (off + (4 * x)) 4 in
  [|
    Char.code (Bytes.get e 0); Char.code (Bytes.get e 1);
    Char.code (Bytes.get e 2); Char.code (Bytes.get e 3);
  |]

let sbox_lookup t x = Accessor.load8 t.acc (t.off_sbox + x)
let inv_sbox_lookup t x = Accessor.load8 t.acc (t.off_inv_sbox + x)
let set_round_index t r = Accessor.store8 t.acc t.off_round_index r

let bump_block_index t =
  t.blocks_done <- t.blocks_done + 1;
  Accessor.store8 t.acc t.off_block_index (t.blocks_done land 0xff)

(* ---------------------------- encrypt ---------------------------- *)

(** One-block encryption; byte order is FIPS column-major (byte [i] is
    row [i mod 4], column [i / 4]). *)
let encrypt_block t src src_off dst dst_off =
  t.acc.Accessor.store t.off_input (Bytes.sub src src_off 16);
  let s = load_state t t.off_input in
  add_round_key t s 0;
  let out = Array.make 16 0 in
  for round = 1 to t.nr - 1 do
    set_round_index t round;
    for c = 0 to 3 do
      (* inputs: row r comes from column (c+r) mod 4 (ShiftRows) *)
      let w0 = table_entry t t.off_te s.(4 * c) in
      let w1 = table_entry t t.off_te s.((4 * ((c + 1) land 3)) + 1) in
      let w2 = table_entry t t.off_te s.((4 * ((c + 2) land 3)) + 2) in
      let w3 = table_entry t t.off_te s.((4 * ((c + 3) land 3)) + 3) in
      for j = 0 to 3 do
        out.((4 * c) + j) <-
          w0.(j) lxor w1.((j + 3) land 3) lxor w2.((j + 2) land 3) lxor w3.((j + 1) land 3)
      done
    done;
    Array.blit out 0 s 0 16;
    add_round_key t s round
  done;
  set_round_index t t.nr;
  for c = 0 to 3 do
    for j = 0 to 3 do
      out.((4 * c) + j) <- sbox_lookup t s.((4 * ((c + j) land 3)) + j)
    done
  done;
  Array.blit out 0 s 0 16;
  add_round_key t s t.nr;
  store_state t t.off_input s;
  bump_block_index t;
  Bytes.blit (t.acc.Accessor.load t.off_input 16) 0 dst dst_off 16

(* ---------------------------- decrypt ---------------------------- *)

let inv_shift_sub t s =
  let out = Array.make 16 0 in
  for c = 0 to 3 do
    for j = 0 to 3 do
      (* row j shifted right by j: output column c takes from column
         (c - j) mod 4 *)
      out.((4 * c) + j) <- inv_sbox_lookup t s.((4 * ((c - j + 4) land 3)) + j)
    done
  done;
  Array.blit out 0 s 0 16

let decrypt_block t src src_off dst dst_off =
  t.acc.Accessor.store t.off_input (Bytes.sub src src_off 16);
  let s = load_state t t.off_input in
  add_round_key t s t.nr;
  for round = t.nr - 1 downto 1 do
    set_round_index t round;
    inv_shift_sub t s;
    add_round_key t s round;
    let out = Array.make 16 0 in
    for c = 0 to 3 do
      let w0 = table_entry t t.off_td s.(4 * c) in
      let w1 = table_entry t t.off_td s.((4 * c) + 1) in
      let w2 = table_entry t t.off_td s.((4 * c) + 2) in
      let w3 = table_entry t t.off_td s.((4 * c) + 3) in
      for j = 0 to 3 do
        out.((4 * c) + j) <-
          w0.(j) lxor w1.((j + 3) land 3) lxor w2.((j + 2) land 3) lxor w3.((j + 1) land 3)
      done
    done;
    Array.blit out 0 s 0 16
  done;
  set_round_index t 0;
  inv_shift_sub t s;
  add_round_key t s 0;
  store_state t t.off_input s;
  bump_block_index t;
  Bytes.blit (t.acc.Accessor.load t.off_input 16) 0 dst dst_off 16

(** Expose as a [Mode.cipher] so ECB/CBC/CTR come for free.  The CBC
    chaining vector (public state) is mirrored into the context's
    [cbc_ivec] slot by [set_iv]. *)
let set_iv t iv = t.acc.Accessor.store t.off_ivec iv

let cipher t = Mode.{ encrypt = encrypt_block t; decrypt = decrypt_block t }

(** The permutation linking the order of round-1 Te lookups to state
    byte positions: lookup [j] reads the table entry indexed by state
    byte [round1_lookup_order.(j)] (after the initial AddRoundKey).
    The bus-monitor attack uses this to invert observed addresses into
    key bytes. *)
let round1_lookup_order = [| 0; 5; 10; 15; 4; 9; 14; 3; 8; 13; 2; 7; 12; 1; 6; 11 |]
