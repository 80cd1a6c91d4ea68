(** Fast native AES (the "generic OpenSSL AES" of the paper).

    Word-oriented implementation over the rotated round tables of
    [Aes_tables]; decryption is the equivalent inverse cipher over
    the key's precomputed decryption schedule, so both directions
    cost four table lookups per column per round.  This is the
    bulk-data path used for the actual byte transformations in the
    simulator; the security-relevant instrumented twin lives in
    [Aes_block] and is cross-checked against this one.

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
let td0 = Aes_tables.tdi_words
let td1 = Aes_tables.tdi_words_r8
let td2 = Aes_tables.tdi_words_r16
let td3 = Aes_tables.tdi_words_r24
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

(* One column of an inner round of the equivalent inverse cipher
   (FIPS-197 §5.3.5): the [td] lookups merge InvShiftRows,
   InvSubBytes and InvMixColumns; [dk] is the decryption schedule,
   whose inner round keys already carry InvMixColumns.  Column [i]
   draws its bytes from columns (i, i+3, i+2, i+1) mod 4. *)
let[@inline] inv_mix dk r4 i a b c d =
  Array.unsafe_get td0 ((a lsr 24) land 0xff)
  lxor Array.unsafe_get td1 ((b lsr 16) land 0xff)
  lxor Array.unsafe_get td2 ((c lsr 8) land 0xff)
  lxor Array.unsafe_get td3 (d land 0xff)
  lxor Array.unsafe_get dk (r4 + i)

(* One column of the final round: InvShiftRows + InvSubBytes +
   AddRoundKey, no InvMixColumns. *)
let[@inline] inv_last dk nr4 i a b c d =
  (Array.unsafe_get isbox ((a lsr 24) land 0xff) lsl 24)
  lor (Array.unsafe_get isbox ((b lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get isbox ((c lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get isbox (d land 0xff)
  lxor Array.unsafe_get dk (nr4 + i)

(* Rounds [round..nr] of the inverse cipher; the last round also XORs
   [x0..x3] into its output, which is the CBC chain for
   [cbc_decrypt_into] and zero for a lone block. *)
let rec inv_rounds dk nr dst dst_off round s0 s1 s2 s3 x0 x1 x2 x3 =
  if round = nr then begin
    let nr4 = 4 * nr in
    set_word dst dst_off (inv_last dk nr4 0 s0 s3 s2 s1 lxor x0);
    set_word dst (dst_off + 4) (inv_last dk nr4 1 s1 s0 s3 s2 lxor x1);
    set_word dst (dst_off + 8) (inv_last dk nr4 2 s2 s1 s0 s3 lxor x2);
    set_word dst (dst_off + 12) (inv_last dk nr4 3 s3 s2 s1 s0 lxor x3)
  end
  else begin
    let r4 = 4 * round in
    inv_rounds dk nr dst dst_off (round + 1) (inv_mix dk r4 0 s0 s3 s2 s1)
      (inv_mix dk r4 1 s1 s0 s3 s2) (inv_mix dk r4 2 s2 s1 s0 s3) (inv_mix dk r4 3 s3 s2 s1 s0)
      x0 x1 x2 x3
  end

(** Equivalent inverse cipher over the decryption schedule
    [inv_words]: the same round structure, and the same number of
    table lookups, as [encrypt_block]. *)
let decrypt_block (k : key) src src_off dst dst_off =
  check_block src src_off;
  check_block dst dst_off;
  let dk = k.Aes_key.inv_words in
  inv_rounds dk k.Aes_key.nr dst dst_off 1
    (get_word src src_off lxor Array.unsafe_get dk 0)
    (get_word src (src_off + 4) lxor Array.unsafe_get dk 1)
    (get_word src (src_off + 8) lxor Array.unsafe_get dk 2)
    (get_word src (src_off + 12) lxor Array.unsafe_get dk 3)
    0 0 0 0

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
let cbc_encrypt_into (k : key) ~iv ~iv_off src src_off dst dst_off nblocks =
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

(* AES-128 CBC decrypt in place, fully unrolled over the decryption
   schedule.  Each block's ciphertext words are read (and saved as
   the next chain) before the cleartext is stored over them, so
   in-place operation is safe. *)
let cbc_decrypt_u10 dk ~iv ~iv_off buf off nblocks =
  let c0 = ref (get_word_32 iv iv_off) and c1 = ref (get_word_32 iv (iv_off + 4))
  and c2 = ref (get_word_32 iv (iv_off + 8)) and c3 = ref (get_word_32 iv (iv_off + 12)) in
  for i = 0 to nblocks - 1 do
    let o = off + (16 * i) in
    let w0 = get_word_32 buf o and w1 = get_word_32 buf (o + 4)
    and w2 = get_word_32 buf (o + 8) and w3 = get_word_32 buf (o + 12) in
    let s0 = w0 lxor Array.unsafe_get dk 0 and s1 = w1 lxor Array.unsafe_get dk 1
    and s2 = w2 lxor Array.unsafe_get dk 2 and s3 = w3 lxor Array.unsafe_get dk 3 in
    let t0 = inv_mix dk 4 0 s0 s3 s2 s1 and t1 = inv_mix dk 4 1 s1 s0 s3 s2
    and t2 = inv_mix dk 4 2 s2 s1 s0 s3 and t3 = inv_mix dk 4 3 s3 s2 s1 s0 in
    let s0 = inv_mix dk 8 0 t0 t3 t2 t1 and s1 = inv_mix dk 8 1 t1 t0 t3 t2
    and s2 = inv_mix dk 8 2 t2 t1 t0 t3 and s3 = inv_mix dk 8 3 t3 t2 t1 t0 in
    let t0 = inv_mix dk 12 0 s0 s3 s2 s1 and t1 = inv_mix dk 12 1 s1 s0 s3 s2
    and t2 = inv_mix dk 12 2 s2 s1 s0 s3 and t3 = inv_mix dk 12 3 s3 s2 s1 s0 in
    let s0 = inv_mix dk 16 0 t0 t3 t2 t1 and s1 = inv_mix dk 16 1 t1 t0 t3 t2
    and s2 = inv_mix dk 16 2 t2 t1 t0 t3 and s3 = inv_mix dk 16 3 t3 t2 t1 t0 in
    let t0 = inv_mix dk 20 0 s0 s3 s2 s1 and t1 = inv_mix dk 20 1 s1 s0 s3 s2
    and t2 = inv_mix dk 20 2 s2 s1 s0 s3 and t3 = inv_mix dk 20 3 s3 s2 s1 s0 in
    let s0 = inv_mix dk 24 0 t0 t3 t2 t1 and s1 = inv_mix dk 24 1 t1 t0 t3 t2
    and s2 = inv_mix dk 24 2 t2 t1 t0 t3 and s3 = inv_mix dk 24 3 t3 t2 t1 t0 in
    let t0 = inv_mix dk 28 0 s0 s3 s2 s1 and t1 = inv_mix dk 28 1 s1 s0 s3 s2
    and t2 = inv_mix dk 28 2 s2 s1 s0 s3 and t3 = inv_mix dk 28 3 s3 s2 s1 s0 in
    let s0 = inv_mix dk 32 0 t0 t3 t2 t1 and s1 = inv_mix dk 32 1 t1 t0 t3 t2
    and s2 = inv_mix dk 32 2 t2 t1 t0 t3 and s3 = inv_mix dk 32 3 t3 t2 t1 t0 in
    let t0 = inv_mix dk 36 0 s0 s3 s2 s1 and t1 = inv_mix dk 36 1 s1 s0 s3 s2
    and t2 = inv_mix dk 36 2 s2 s1 s0 s3 and t3 = inv_mix dk 36 3 s3 s2 s1 s0 in
    set_word_32 buf o (inv_last dk 40 0 t0 t3 t2 t1 lxor !c0);
    set_word_32 buf (o + 4) (inv_last dk 40 1 t1 t0 t3 t2 lxor !c1);
    set_word_32 buf (o + 8) (inv_last dk 40 2 t2 t1 t0 t3 lxor !c2);
    set_word_32 buf (o + 12) (inv_last dk 40 3 t3 t2 t1 t0 lxor !c3);
    c0 := w0;
    c1 := w1;
    c2 := w2;
    c3 := w3
  done

(** [cbc_decrypt_into k ~iv ~iv_off buf off nblocks] decrypts
    [nblocks] contiguous blocks of [buf] in place in CBC mode. *)
let cbc_decrypt_into (k : key) ~iv ~iv_off buf off nblocks =
  check_cbc "Aes.cbc_decrypt_into" ~iv ~iv_off buf off buf off nblocks;
  let dk = k.Aes_key.inv_words in
  if k.Aes_key.nr = 10 then cbc_decrypt_u10 dk ~iv ~iv_off buf off nblocks
  else begin
    let c0 = ref (get_word iv iv_off) and c1 = ref (get_word iv (iv_off + 4))
    and c2 = ref (get_word iv (iv_off + 8)) and c3 = ref (get_word iv (iv_off + 12)) in
    for i = 0 to nblocks - 1 do
      let o = off + (16 * i) in
      let w0 = get_word buf o and w1 = get_word buf (o + 4)
      and w2 = get_word buf (o + 8) and w3 = get_word buf (o + 12) in
      inv_rounds dk k.Aes_key.nr buf o 1
        (w0 lxor Array.unsafe_get dk 0)
        (w1 lxor Array.unsafe_get dk 1)
        (w2 lxor Array.unsafe_get dk 2)
        (w3 lxor Array.unsafe_get dk 3)
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
