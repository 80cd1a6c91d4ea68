(** Table-free AES: no lookup tables, hence {e no access-protected
    state} (cf. Table 4 and the §9 discussion of AESSE/TRESOR).

    Every S-box output is computed algebraically (field inverse +
    affine transform) and MixColumns uses explicit GF(2^8)
    multiplications, so a bus monitor watching the cipher's memory
    sees no key-dependent access pattern at all — the trade the paper
    notes register-based x86 schemes make, paid for in speed (AESSE
    reports a 100x slowdown for the naive form, 6x with tables).

    Sentry does not need this variant (its tables live on-SoC where
    the bus cannot see them); it exists as the ablation point: what
    protecting the access pattern costs when you {e cannot} hide the
    tables.  Correctness is pinned to the same FIPS vectors. *)

let sub_byte = Gf256.sbox_entry

let inv_affine b =
  (* inverse of the S-box affine map: b' = rotl1(b) ^ rotl3(b) ^ rotl6(b) ^ 0x05 *)
  let rotl x n = ((x lsl n) lor (x lsr (8 - n))) land 0xff in
  rotl b 1 lxor rotl b 3 lxor rotl b 6 lxor 0x05

let inv_sub_byte b = Gf256.inv (inv_affine b)

type key = Aes_key.t

let expand = Aes_key.expand

let add_round_key (k : key) s r =
  for c = 0 to 3 do
    let w = k.Aes_key.words.((4 * r) + c) in
    s.((4 * c) + 0) <- s.((4 * c) + 0) lxor ((w lsr 24) land 0xff);
    s.((4 * c) + 1) <- s.((4 * c) + 1) lxor ((w lsr 16) land 0xff);
    s.((4 * c) + 2) <- s.((4 * c) + 2) lxor ((w lsr 8) land 0xff);
    s.((4 * c) + 3) <- s.((4 * c) + 3) lxor (w land 0xff)
  done

let sub_bytes s f =
  for i = 0 to 15 do
    s.(i) <- f s.(i)
  done

(* state byte i = row (i mod 4), column (i / 4) *)
let shift_rows s =
  let t = Array.copy s in
  for c = 0 to 3 do
    for r = 0 to 3 do
      s.((4 * c) + r) <- t.((4 * ((c + r) land 3)) + r)
    done
  done

let inv_shift_rows s =
  let t = Array.copy s in
  for c = 0 to 3 do
    for r = 0 to 3 do
      s.((4 * c) + r) <- t.((4 * ((c - r + 4) land 3)) + r)
    done
  done

let mix_columns s =
  for c = 0 to 3 do
    let a0 = s.(4 * c) and a1 = s.((4 * c) + 1) and a2 = s.((4 * c) + 2) and a3 = s.((4 * c) + 3) in
    s.(4 * c) <- Gf256.mul 2 a0 lxor Gf256.mul 3 a1 lxor a2 lxor a3;
    s.((4 * c) + 1) <- a0 lxor Gf256.mul 2 a1 lxor Gf256.mul 3 a2 lxor a3;
    s.((4 * c) + 2) <- a0 lxor a1 lxor Gf256.mul 2 a2 lxor Gf256.mul 3 a3;
    s.((4 * c) + 3) <- Gf256.mul 3 a0 lxor a1 lxor a2 lxor Gf256.mul 2 a3
  done

let inv_mix_columns s =
  for c = 0 to 3 do
    let a0 = s.(4 * c) and a1 = s.((4 * c) + 1) and a2 = s.((4 * c) + 2) and a3 = s.((4 * c) + 3) in
    s.(4 * c) <- Gf256.mul 14 a0 lxor Gf256.mul 11 a1 lxor Gf256.mul 13 a2 lxor Gf256.mul 9 a3;
    s.((4 * c) + 1) <-
      Gf256.mul 9 a0 lxor Gf256.mul 14 a1 lxor Gf256.mul 11 a2 lxor Gf256.mul 13 a3;
    s.((4 * c) + 2) <-
      Gf256.mul 13 a0 lxor Gf256.mul 9 a1 lxor Gf256.mul 14 a2 lxor Gf256.mul 11 a3;
    s.((4 * c) + 3) <-
      Gf256.mul 11 a0 lxor Gf256.mul 13 a1 lxor Gf256.mul 9 a2 lxor Gf256.mul 14 a3
  done

let load src off = Array.init 16 (fun i -> Char.code (Bytes.get src (off + i)))

let store s dst off =
  Array.iteri (fun i v -> Bytes.set dst (off + i) (Char.chr v)) s

let encrypt_block (k : key) src src_off dst dst_off =
  let s = load src src_off in
  add_round_key k s 0;
  for r = 1 to k.Aes_key.nr - 1 do
    sub_bytes s sub_byte;
    shift_rows s;
    mix_columns s;
    add_round_key k s r
  done;
  sub_bytes s sub_byte;
  shift_rows s;
  add_round_key k s k.Aes_key.nr;
  store s dst dst_off

let decrypt_block (k : key) src src_off dst dst_off =
  let s = load src src_off in
  add_round_key k s k.Aes_key.nr;
  for r = k.Aes_key.nr - 1 downto 1 do
    inv_shift_rows s;
    sub_bytes s inv_sub_byte;
    add_round_key k s r;
    inv_mix_columns s
  done;
  inv_shift_rows s;
  sub_bytes s inv_sub_byte;
  add_round_key k s 0;
  store s dst dst_off

let cipher k = Mode.{ encrypt = encrypt_block k; decrypt = decrypt_block k }
