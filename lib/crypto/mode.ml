(** CBC chaining, generic over a 16-byte block transform so the
    native and instrumented ciphers share it.

    CBC is the one mode Sentry uses — the Android/Linux default (§6.1). *)

type block_fn = bytes -> int -> bytes -> int -> unit
(** [f src src_off dst dst_off] transforms one 16-byte block. *)

type cipher = { encrypt : block_fn; decrypt : block_fn }

let of_key k = { encrypt = Aes.encrypt_block k; decrypt = Aes.decrypt_block k }

let block = 16

let check_blocks name data =
  if Bytes.length data mod block <> 0 then
    invalid_arg (name ^ ": data not a multiple of the block size")

(* ------------------------- scatter-gather ------------------------- *)

(* The [_into] variants transform [len] bytes from [src] at [src_off]
   into [dst] at [dst_off]; [src] and [dst] may be the same buffer at
   the same offset (in-place).  They are the zero-allocation bulk path
   under the page pipeline; the classic allocating entry points below
   are thin wrappers over them. *)

type scratch = { chain : Bytes.t; tmp : Bytes.t }

(** Reusable chaining state for the [_into] CBC paths: one [scratch]
    per long-lived cipher owner avoids two buffer allocations per
    call. *)
let make_scratch () = { chain = Bytes.create block; tmp = Bytes.create block }

let check_into name ~src ~src_off ~dst ~dst_off ~len =
  if len mod block <> 0 then invalid_arg (name ^ ": data not a multiple of the block size");
  if src_off < 0 || src_off + len > Bytes.length src then invalid_arg (name ^ ": bad src range");
  if dst_off < 0 || dst_off + len > Bytes.length dst then invalid_arg (name ^ ": bad dst range")

(* xor the 16-byte [chain] into [dst] at [dst_off] *)
let xor16_at chain dst dst_off =
  for i = 0 to block - 1 do
    Bytes.unsafe_set dst (dst_off + i)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get chain i)
         lxor Char.code (Bytes.unsafe_get dst (dst_off + i))))
  done

(* ------------------------------ CBC ------------------------------ *)

let cbc_encrypt_into ?scratch c ~iv ~src ~src_off ~dst ~dst_off ~len =
  check_into "Mode.cbc_encrypt_into" ~src ~src_off ~dst ~dst_off ~len;
  if Bytes.length iv <> block then invalid_arg "Mode.cbc_encrypt_into: bad IV";
  let { chain; tmp } = match scratch with Some s -> s | None -> make_scratch () in
  Bytes.blit iv 0 chain 0 block;
  for i = 0 to (len / block) - 1 do
    Bytes.blit src (src_off + (block * i)) tmp 0 block;
    Sentry_util.Bytes_util.xor_into ~src:chain ~dst:tmp;
    c.encrypt tmp 0 dst (dst_off + (block * i));
    Bytes.blit dst (dst_off + (block * i)) chain 0 block
  done

let cbc_decrypt_into ?scratch c ~iv ~src ~src_off ~dst ~dst_off ~len =
  check_into "Mode.cbc_decrypt_into" ~src ~src_off ~dst ~dst_off ~len;
  if Bytes.length iv <> block then invalid_arg "Mode.cbc_decrypt_into: bad IV";
  let { chain; tmp } = match scratch with Some s -> s | None -> make_scratch () in
  Bytes.blit iv 0 chain 0 block;
  for i = 0 to (len / block) - 1 do
    (* save the ciphertext block first so src and dst may alias *)
    Bytes.blit src (src_off + (block * i)) tmp 0 block;
    c.decrypt src (src_off + (block * i)) dst (dst_off + (block * i));
    xor16_at chain dst (dst_off + (block * i));
    Bytes.blit tmp 0 chain 0 block
  done

let cbc_encrypt c ~iv data =
  check_blocks "Mode.cbc_encrypt" data;
  if Bytes.length iv <> block then invalid_arg "Mode.cbc_encrypt: bad IV";
  let out = Bytes.create (Bytes.length data) in
  cbc_encrypt_into c ~iv ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:(Bytes.length data);
  out

let cbc_decrypt c ~iv data =
  check_blocks "Mode.cbc_decrypt" data;
  if Bytes.length iv <> block then invalid_arg "Mode.cbc_decrypt: bad IV";
  let out = Bytes.create (Bytes.length data) in
  cbc_decrypt_into c ~iv ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:(Bytes.length data);
  out
