(** Fast native AES (the "generic OpenSSL AES" of the paper).

    Word-oriented implementation over the rotated round tables of
    [Aes_tables].  This is the bulk-data path used for the actual
    byte transformations in the simulator; the security-relevant
    instrumented twin lives in [Aes_block] and is cross-checked
    against this one.

    The round state is held in scalar locals (never arrays), so one
    block transform performs no heap allocation — the lock/unlock
    pipeline pushes hundreds of thousands of blocks through here and
    every word of garbage would be multiplied by that count.

    State convention (FIPS-197): input byte [i] is state row
    [i mod 4], column [i / 4]; a column is one 32-bit word, row 0 in
    the most significant byte. *)

type key = Aes_key.t

let expand = Aes_key.expand

let get_word b off =
  (Char.code (Bytes.unsafe_get b off) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (off + 3))

let set_word b off w =
  Bytes.unsafe_set b off (Char.unsafe_chr ((w lsr 24) land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (w land 0xff))

let check_block b off =
  if off < 0 || off + 16 > Bytes.length b then invalid_arg "Aes: block out of range"

(* Round tables bound once at module level; the round helpers below
   are top-level functions taking all state as arguments, so a block
   transform makes only saturated direct calls — no closures, hence
   no heap allocation. *)
let te0 = Aes_tables.te_words
let te1 = Aes_tables.te_words_r8
let te2 = Aes_tables.te_words_r16
let te3 = Aes_tables.te_words_r24
let sbox = Aes_tables.sbox
let td0 = Aes_tables.td_words
let td1 = Aes_tables.td_words_r8
let td2 = Aes_tables.td_words_r16
let td3 = Aes_tables.td_words_r24
let isbox = Aes_tables.inv_sbox

(* One column of an inner encryption round: table lookups merge
   SubBytes + ShiftRows + MixColumns. *)
let[@inline] enc_mix rk r4 i a b c d =
  Array.unsafe_get te0 ((a lsr 24) land 0xff)
  lxor Array.unsafe_get te1 ((b lsr 16) land 0xff)
  lxor Array.unsafe_get te2 ((c lsr 8) land 0xff)
  lxor Array.unsafe_get te3 (d land 0xff)
  lxor Array.unsafe_get rk (r4 + i)

(* One column of the final round: SubBytes + ShiftRows + AddRoundKey,
   no MixColumns. *)
let[@inline] enc_last rk nr4 i a b c d =
  (Array.unsafe_get sbox ((a lsr 24) land 0xff) lsl 24)
  lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (d land 0xff)
  lxor Array.unsafe_get rk (nr4 + i)

let rec enc_rounds rk nr dst dst_off round s0 s1 s2 s3 =
  if round = nr then begin
    let nr4 = 4 * nr in
    set_word dst dst_off (enc_last rk nr4 0 s0 s1 s2 s3);
    set_word dst (dst_off + 4) (enc_last rk nr4 1 s1 s2 s3 s0);
    set_word dst (dst_off + 8) (enc_last rk nr4 2 s2 s3 s0 s1);
    set_word dst (dst_off + 12) (enc_last rk nr4 3 s3 s0 s1 s2)
  end
  else begin
    let r4 = 4 * round in
    enc_rounds rk nr dst dst_off (round + 1) (enc_mix rk r4 0 s0 s1 s2 s3)
      (enc_mix rk r4 1 s1 s2 s3 s0) (enc_mix rk r4 2 s2 s3 s0 s1) (enc_mix rk r4 3 s3 s0 s1 s2)
  end

(** [encrypt_block k src src_off dst dst_off] transforms one 16-byte
    block.  [src] and [dst] may alias. *)
let encrypt_block (k : key) src src_off dst dst_off =
  check_block src src_off;
  check_block dst dst_off;
  let rk = k.Aes_key.words in
  enc_rounds rk k.Aes_key.nr dst dst_off 1
    (get_word src src_off lxor Array.unsafe_get rk 0)
    (get_word src (src_off + 4) lxor Array.unsafe_get rk 1)
    (get_word src (src_off + 8) lxor Array.unsafe_get rk 2)
    (get_word src (src_off + 12) lxor Array.unsafe_get rk 3)

(* InvShiftRows + InvSubBytes for one column, drawing bytes from
   columns (i, i+3, i+2, i+1) mod 4. *)
let[@inline] dec_shift_sub a b c d =
  (Array.unsafe_get isbox ((a lsr 24) land 0xff) lsl 24)
  lor (Array.unsafe_get isbox ((b lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get isbox ((c lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get isbox (d land 0xff)

(* AddRoundKey + InvMixColumns for one column. *)
let[@inline] dec_mix rk r4 i t =
  let w = t lxor Array.unsafe_get rk (r4 + i) in
  Array.unsafe_get td0 ((w lsr 24) land 0xff)
  lxor Array.unsafe_get td1 ((w lsr 16) land 0xff)
  lxor Array.unsafe_get td2 ((w lsr 8) land 0xff)
  lxor Array.unsafe_get td3 (w land 0xff)

let rec dec_rounds rk dst dst_off round s0 s1 s2 s3 =
  let t0 = dec_shift_sub s0 s3 s2 s1
  and t1 = dec_shift_sub s1 s0 s3 s2
  and t2 = dec_shift_sub s2 s1 s0 s3
  and t3 = dec_shift_sub s3 s2 s1 s0 in
  if round = 0 then begin
    set_word dst dst_off (t0 lxor Array.unsafe_get rk 0);
    set_word dst (dst_off + 4) (t1 lxor Array.unsafe_get rk 1);
    set_word dst (dst_off + 8) (t2 lxor Array.unsafe_get rk 2);
    set_word dst (dst_off + 12) (t3 lxor Array.unsafe_get rk 3)
  end
  else begin
    let r4 = 4 * round in
    dec_rounds rk dst dst_off (round - 1) (dec_mix rk r4 0 t0) (dec_mix rk r4 1 t1)
      (dec_mix rk r4 2 t2) (dec_mix rk r4 3 t3)
  end

(** Inverse cipher in the direct order: InvShiftRows, InvSubBytes,
    AddRoundKey, InvMixColumns.  Uses the same (encryption) schedule
    applied backwards — no separate decryption schedule is stored. *)
let decrypt_block (k : key) src src_off dst dst_off =
  check_block src src_off;
  check_block dst dst_off;
  let rk = k.Aes_key.words in
  let nr = k.Aes_key.nr in
  let nr4 = 4 * nr in
  dec_rounds rk dst dst_off (nr - 1)
    (get_word src src_off lxor Array.unsafe_get rk nr4)
    (get_word src (src_off + 4) lxor Array.unsafe_get rk (nr4 + 1))
    (get_word src (src_off + 8) lxor Array.unsafe_get rk (nr4 + 2))
    (get_word src (src_off + 12) lxor Array.unsafe_get rk (nr4 + 3))

(* ------------------- fused CBC page kernels ---------------------- *)

(* The batched lock/unlock pipeline pushes whole pages through CBC in
   one call.  Chaining through four scalar locals (never a buffer)
   and folding the CBC XOR into round 0 removes the per-block IV
   buffer traffic of the generic [Mode] path; the AES-128 case is
   additionally fully unrolled (the recursive [enc_rounds] costs one
   call per round, and ten calls per block is ~25% of the whole block
   transform in native code).  Words move through 32-bit loads where
   the runtime provides them. *)

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Big-endian word load/store via a single 32-bit memory access.  The
   intermediate int32 never escapes the expression, so the native
   compiler keeps it unboxed. *)
let[@inline] get_word_32 b off = Int32.to_int (bswap32 (get32u b off)) land 0xFFFFFFFF
let[@inline] set_word_32 b off w = set32u b off (bswap32 (Int32.of_int w))

let check_cbc name ~iv ~iv_off src src_off dst dst_off nblocks =
  if nblocks < 0 then invalid_arg (name ^ ": negative block count");
  let len = 16 * nblocks in
  if iv_off < 0 || iv_off + 16 > Bytes.length iv then invalid_arg (name ^ ": bad IV view");
  if src_off < 0 || src_off + len > Bytes.length src then invalid_arg (name ^ ": bad src view");
  if dst_off < 0 || dst_off + len > Bytes.length dst then invalid_arg (name ^ ": bad dst view")

(* AES-128 CBC encrypt, fully unrolled.  [src] and [dst] may alias at
   equal offsets (each block's input words are consumed before its
   output words are stored). *)
let cbc_encrypt_u10 rk ~iv ~iv_off src src_off dst dst_off nblocks =
  let c0 = ref (get_word_32 iv iv_off) and c1 = ref (get_word_32 iv (iv_off + 4))
  and c2 = ref (get_word_32 iv (iv_off + 8)) and c3 = ref (get_word_32 iv (iv_off + 12)) in
  for i = 0 to nblocks - 1 do
    let so = src_off + (16 * i) and dso = dst_off + (16 * i) in
    let s0 = get_word_32 src so lxor !c0 lxor Array.unsafe_get rk 0
    and s1 = get_word_32 src (so + 4) lxor !c1 lxor Array.unsafe_get rk 1
    and s2 = get_word_32 src (so + 8) lxor !c2 lxor Array.unsafe_get rk 2
    and s3 = get_word_32 src (so + 12) lxor !c3 lxor Array.unsafe_get rk 3 in
    let t0 = enc_mix rk 4 0 s0 s1 s2 s3 and t1 = enc_mix rk 4 1 s1 s2 s3 s0
    and t2 = enc_mix rk 4 2 s2 s3 s0 s1 and t3 = enc_mix rk 4 3 s3 s0 s1 s2 in
    let s0 = enc_mix rk 8 0 t0 t1 t2 t3 and s1 = enc_mix rk 8 1 t1 t2 t3 t0
    and s2 = enc_mix rk 8 2 t2 t3 t0 t1 and s3 = enc_mix rk 8 3 t3 t0 t1 t2 in
    let t0 = enc_mix rk 12 0 s0 s1 s2 s3 and t1 = enc_mix rk 12 1 s1 s2 s3 s0
    and t2 = enc_mix rk 12 2 s2 s3 s0 s1 and t3 = enc_mix rk 12 3 s3 s0 s1 s2 in
    let s0 = enc_mix rk 16 0 t0 t1 t2 t3 and s1 = enc_mix rk 16 1 t1 t2 t3 t0
    and s2 = enc_mix rk 16 2 t2 t3 t0 t1 and s3 = enc_mix rk 16 3 t3 t0 t1 t2 in
    let t0 = enc_mix rk 20 0 s0 s1 s2 s3 and t1 = enc_mix rk 20 1 s1 s2 s3 s0
    and t2 = enc_mix rk 20 2 s2 s3 s0 s1 and t3 = enc_mix rk 20 3 s3 s0 s1 s2 in
    let s0 = enc_mix rk 24 0 t0 t1 t2 t3 and s1 = enc_mix rk 24 1 t1 t2 t3 t0
    and s2 = enc_mix rk 24 2 t2 t3 t0 t1 and s3 = enc_mix rk 24 3 t3 t0 t1 t2 in
    let t0 = enc_mix rk 28 0 s0 s1 s2 s3 and t1 = enc_mix rk 28 1 s1 s2 s3 s0
    and t2 = enc_mix rk 28 2 s2 s3 s0 s1 and t3 = enc_mix rk 28 3 s3 s0 s1 s2 in
    let s0 = enc_mix rk 32 0 t0 t1 t2 t3 and s1 = enc_mix rk 32 1 t1 t2 t3 t0
    and s2 = enc_mix rk 32 2 t2 t3 t0 t1 and s3 = enc_mix rk 32 3 t3 t0 t1 t2 in
    let t0 = enc_mix rk 36 0 s0 s1 s2 s3 and t1 = enc_mix rk 36 1 s1 s2 s3 s0
    and t2 = enc_mix rk 36 2 s2 s3 s0 s1 and t3 = enc_mix rk 36 3 s3 s0 s1 s2 in
    let w0 = enc_last rk 40 0 t0 t1 t2 t3 and w1 = enc_last rk 40 1 t1 t2 t3 t0
    and w2 = enc_last rk 40 2 t2 t3 t0 t1 and w3 = enc_last rk 40 3 t3 t0 t1 t2 in
    set_word_32 dst dso w0;
    set_word_32 dst (dso + 4) w1;
    set_word_32 dst (dso + 8) w2;
    set_word_32 dst (dso + 12) w3;
    c0 := w0;
    c1 := w1;
    c2 := w2;
    c3 := w3
  done

(** [cbc_encrypt_into k ~iv ~iv_off src src_off dst dst_off nblocks]
    encrypts [nblocks] contiguous blocks in CBC mode with the chain
    held in registers.  [src] and [dst] may alias at equal offsets. *)
let cbc_encrypt_into (k : key) ~iv ?(iv_off = 0) src src_off dst dst_off nblocks =
  check_cbc "Aes.cbc_encrypt_into" ~iv ~iv_off src src_off dst dst_off nblocks;
  let rk = k.Aes_key.words in
  if k.Aes_key.nr = 10 then cbc_encrypt_u10 rk ~iv ~iv_off src src_off dst dst_off nblocks
  else begin
    let nr = k.Aes_key.nr in
    let c0 = ref (get_word iv iv_off) and c1 = ref (get_word iv (iv_off + 4))
    and c2 = ref (get_word iv (iv_off + 8)) and c3 = ref (get_word iv (iv_off + 12)) in
    for i = 0 to nblocks - 1 do
      let so = src_off + (16 * i) and dso = dst_off + (16 * i) in
      enc_rounds rk nr dst dso 1
        (get_word src so lxor !c0 lxor Array.unsafe_get rk 0)
        (get_word src (so + 4) lxor !c1 lxor Array.unsafe_get rk 1)
        (get_word src (so + 8) lxor !c2 lxor Array.unsafe_get rk 2)
        (get_word src (so + 12) lxor !c3 lxor Array.unsafe_get rk 3);
      c0 := get_word dst dso;
      c1 := get_word dst (dso + 4);
      c2 := get_word dst (dso + 8);
      c3 := get_word dst (dso + 12)
    done
  end

(* Final decryption round with the CBC chain XOR folded into the
   output store, used by the generic-[nr] fallback below. *)
let rec dec_rounds_x rk dst dst_off round s0 s1 s2 s3 x0 x1 x2 x3 =
  let t0 = dec_shift_sub s0 s3 s2 s1
  and t1 = dec_shift_sub s1 s0 s3 s2
  and t2 = dec_shift_sub s2 s1 s0 s3
  and t3 = dec_shift_sub s3 s2 s1 s0 in
  if round = 0 then begin
    set_word dst dst_off (t0 lxor Array.unsafe_get rk 0 lxor x0);
    set_word dst (dst_off + 4) (t1 lxor Array.unsafe_get rk 1 lxor x1);
    set_word dst (dst_off + 8) (t2 lxor Array.unsafe_get rk 2 lxor x2);
    set_word dst (dst_off + 12) (t3 lxor Array.unsafe_get rk 3 lxor x3)
  end
  else begin
    let r4 = 4 * round in
    dec_rounds_x rk dst dst_off (round - 1) (dec_mix rk r4 0 t0) (dec_mix rk r4 1 t1)
      (dec_mix rk r4 2 t2) (dec_mix rk r4 3 t3) x0 x1 x2 x3
  end

(* AES-128 CBC decrypt in place, fully unrolled.  Each block's
   ciphertext words are read (and saved as the next chain) before the
   cleartext is stored over them, so in-place operation is safe. *)
let cbc_decrypt_u10 rk ~iv ~iv_off buf off nblocks =
  let c0 = ref (get_word_32 iv iv_off) and c1 = ref (get_word_32 iv (iv_off + 4))
  and c2 = ref (get_word_32 iv (iv_off + 8)) and c3 = ref (get_word_32 iv (iv_off + 12)) in
  for i = 0 to nblocks - 1 do
    let o = off + (16 * i) in
    let w0 = get_word_32 buf o and w1 = get_word_32 buf (o + 4)
    and w2 = get_word_32 buf (o + 8) and w3 = get_word_32 buf (o + 12) in
    let s0 = w0 lxor Array.unsafe_get rk 40 and s1 = w1 lxor Array.unsafe_get rk 41
    and s2 = w2 lxor Array.unsafe_get rk 42 and s3 = w3 lxor Array.unsafe_get rk 43 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 36 0 t0 and s1 = dec_mix rk 36 1 t1
    and s2 = dec_mix rk 36 2 t2 and s3 = dec_mix rk 36 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 32 0 t0 and s1 = dec_mix rk 32 1 t1
    and s2 = dec_mix rk 32 2 t2 and s3 = dec_mix rk 32 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 28 0 t0 and s1 = dec_mix rk 28 1 t1
    and s2 = dec_mix rk 28 2 t2 and s3 = dec_mix rk 28 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 24 0 t0 and s1 = dec_mix rk 24 1 t1
    and s2 = dec_mix rk 24 2 t2 and s3 = dec_mix rk 24 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 20 0 t0 and s1 = dec_mix rk 20 1 t1
    and s2 = dec_mix rk 20 2 t2 and s3 = dec_mix rk 20 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 16 0 t0 and s1 = dec_mix rk 16 1 t1
    and s2 = dec_mix rk 16 2 t2 and s3 = dec_mix rk 16 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 12 0 t0 and s1 = dec_mix rk 12 1 t1
    and s2 = dec_mix rk 12 2 t2 and s3 = dec_mix rk 12 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 8 0 t0 and s1 = dec_mix rk 8 1 t1
    and s2 = dec_mix rk 8 2 t2 and s3 = dec_mix rk 8 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    let s0 = dec_mix rk 4 0 t0 and s1 = dec_mix rk 4 1 t1
    and s2 = dec_mix rk 4 2 t2 and s3 = dec_mix rk 4 3 t3 in
    let t0 = dec_shift_sub s0 s3 s2 s1 and t1 = dec_shift_sub s1 s0 s3 s2
    and t2 = dec_shift_sub s2 s1 s0 s3 and t3 = dec_shift_sub s3 s2 s1 s0 in
    set_word_32 buf o (t0 lxor Array.unsafe_get rk 0 lxor !c0);
    set_word_32 buf (o + 4) (t1 lxor Array.unsafe_get rk 1 lxor !c1);
    set_word_32 buf (o + 8) (t2 lxor Array.unsafe_get rk 2 lxor !c2);
    set_word_32 buf (o + 12) (t3 lxor Array.unsafe_get rk 3 lxor !c3);
    c0 := w0;
    c1 := w1;
    c2 := w2;
    c3 := w3
  done

(** [cbc_decrypt_into k ~iv ~iv_off buf off nblocks] decrypts
    [nblocks] contiguous blocks of [buf] in place in CBC mode. *)
let cbc_decrypt_into (k : key) ~iv ?(iv_off = 0) buf off nblocks =
  check_cbc "Aes.cbc_decrypt_into" ~iv ~iv_off buf off buf off nblocks;
  let rk = k.Aes_key.words in
  if k.Aes_key.nr = 10 then cbc_decrypt_u10 rk ~iv ~iv_off buf off nblocks
  else begin
    let nr4 = 4 * k.Aes_key.nr in
    let c0 = ref (get_word iv iv_off) and c1 = ref (get_word iv (iv_off + 4))
    and c2 = ref (get_word iv (iv_off + 8)) and c3 = ref (get_word iv (iv_off + 12)) in
    for i = 0 to nblocks - 1 do
      let o = off + (16 * i) in
      let w0 = get_word buf o and w1 = get_word buf (o + 4)
      and w2 = get_word buf (o + 8) and w3 = get_word buf (o + 12) in
      dec_rounds_x rk buf o (k.Aes_key.nr - 1)
        (w0 lxor Array.unsafe_get rk nr4)
        (w1 lxor Array.unsafe_get rk (nr4 + 1))
        (w2 lxor Array.unsafe_get rk (nr4 + 2))
        (w3 lxor Array.unsafe_get rk (nr4 + 3))
        !c0 !c1 !c2 !c3;
      c0 := w0;
      c1 := w1;
      c2 := w2;
      c3 := w3
    done
  end

(** Convenience one-shot block API (fresh output buffer). *)
let encrypt_block_copy k src =
  let dst = Bytes.create 16 in
  encrypt_block k src 0 dst 0;
  dst

let decrypt_block_copy k src =
  let dst = Bytes.create 16 in
  decrypt_block k src 0 dst 0;
  dst
