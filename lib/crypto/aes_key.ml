(** AES key schedule (FIPS-197 §5.2) for 128/192/256-bit keys, and
    the equivalent inverse cipher's decryption schedule (§5.3.5). *)

type size = Aes_128 | Aes_192 | Aes_256

let size_of_bytes = function
  | 16 -> Aes_128
  | 24 -> Aes_192
  | 32 -> Aes_256
  | n -> invalid_arg (Printf.sprintf "Aes_key: bad key length %d" n)

let key_bytes = function Aes_128 -> 16 | Aes_192 -> 24 | Aes_256 -> 32
let nk = function Aes_128 -> 4 | Aes_192 -> 6 | Aes_256 -> 8
let rounds = function Aes_128 -> 10 | Aes_192 -> 12 | Aes_256 -> 14

type t = {
  size : size;
  nr : int;
  words : int array; (* 4*(nr+1) round-key words, big-endian packed *)
  inv_words : int array; (* decryption schedule of the equivalent inverse cipher *)
}

let sub_word w =
  let s i = Aes_tables.sbox.((w lsr i) land 0xff) in
  (s 24 lsl 24) lor (s 16 lsl 16) lor (s 8 lsl 8) lor s 0

let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xffffffff
let ror w n = ((w lsr n) lor (w lsl (32 - n))) land 0xffffffff

(* InvMixColumns of one column word: row [i]'s byte contributes
   [td_words] of it rotated right by [8i] bits. *)
let inv_mix_column w =
  let td = Aes_tables.td_words in
  td.((w lsr 24) land 0xff)
  lxor ror td.((w lsr 16) land 0xff) 8
  lxor ror td.((w lsr 8) land 0xff) 16
  lxor ror td.(w land 0xff) 24

(* FIPS-197 §5.3.5: the round keys in reverse order, with
   InvMixColumns applied to every round key but the first and last,
   so the inverse cipher can run InvSubBytes/InvShiftRows/InvMixColumns
   as one table lookup per byte, in the order the forward cipher runs
   its rounds. *)
let inverse_schedule nr w =
  Array.init
    (4 * (nr + 1))
    (fun i ->
      let r = i / 4 in
      let e = w.((4 * (nr - r)) + (i mod 4)) in
      if r = 0 || r = nr then e else inv_mix_column e)

(** [expand key] computes the full schedule, and its inverse, from a
    raw 16/24/32-byte key. *)
let expand key =
  let size = size_of_bytes (Bytes.length key) in
  let nk = nk size and nr = rounds size in
  let total = 4 * (nr + 1) in
  let w = Array.make total 0 in
  for i = 0 to nk - 1 do
    w.(i) <-
      (Char.code (Bytes.get key (4 * i)) lsl 24)
      lor (Char.code (Bytes.get key ((4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get key ((4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get key ((4 * i) + 3))
  done;
  for i = nk to total - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then sub_word (rot_word temp) lxor (Aes_tables.rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- w.(i - nk) lxor temp
  done;
  { size; nr; words = w; inv_words = inverse_schedule nr w }

(** Round key [r] as 16 bytes (4 words). *)
let round_key t r =
  let b = Bytes.create 16 in
  for c = 0 to 3 do
    let w = t.words.((4 * r) + c) in
    Bytes.set b (4 * c) (Char.chr ((w lsr 24) land 0xff));
    Bytes.set b ((4 * c) + 1) (Char.chr ((w lsr 16) land 0xff));
    Bytes.set b ((4 * c) + 2) (Char.chr ((w lsr 8) land 0xff));
    Bytes.set b ((4 * c) + 3) (Char.chr (w land 0xff))
  done;
  b

(** The whole schedule serialised, 16*(nr+1) bytes — the layout the
    instrumented cipher stores in (simulated) memory, and the layout
    the cold-boot key-schedule scanner searches for. *)
let serialize t =
  let b = Bytes.create (16 * (t.nr + 1)) in
  for r = 0 to t.nr do
    Bytes.blit (round_key t r) 0 b (16 * r) 16
  done;
  b

let schedule_bytes t = 16 * (t.nr + 1)

(** Check whether [b] at [off] satisfies the AES-128 key-expansion
    recurrence for a full 176-byte schedule.  This is the structural
    test the Halderman-style memory scanner uses: a key schedule is
    44 words where w[i] = w[i-4] xor f(w[i-1]). *)
let is_valid_128_schedule b off =
  if off + 176 > Bytes.length b then false
  else begin
    let word i =
      (Char.code (Bytes.get b (off + (4 * i))) lsl 24)
      lor (Char.code (Bytes.get b (off + (4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get b (off + (4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get b (off + (4 * i) + 3))
    in
    (* Reject the degenerate all-zero buffer, which trivially satisfies
       nothing (w4 would need the rcon term). *)
    let rec check i =
      if i = 44 then true
      else
        let temp = word (i - 1) in
        let temp =
          if i mod 4 = 0 then sub_word (rot_word temp) lxor (Aes_tables.rcon.((i / 4) - 1) lsl 24)
          else temp
        in
        if word i <> word (i - 4) lxor temp then false else check (i + 1)
    in
    check 4
  end

(** Extract the original 16-byte key from a schedule found in memory. *)
let key_of_128_schedule b off = Bytes.sub b off 16
