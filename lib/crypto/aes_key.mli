(** AES key schedule (FIPS-197 §5.2) for 128/192/256-bit keys, the
    equivalent inverse cipher's decryption schedule (§5.3.5), and the
    schedule-structure recognizer used by cold-boot key recovery. *)

type size = Aes_128 | Aes_192 | Aes_256

(** @raise Invalid_argument unless the length is 16, 24 or 32. *)
val size_of_bytes : int -> size

val key_bytes : size -> int
val rounds : size -> int

type t = {
  size : size;
  nr : int;
  words : int array;  (** 4*(nr+1) round-key words, big-endian packed *)
  inv_words : int array;
      (** The equivalent inverse cipher's schedule (FIPS-197 §5.3.5):
          [words]' rounds in reverse order, with InvMixColumns applied
          to rounds 1..nr-1.  Host-only, for the fast cipher's decrypt
          kernel: [serialize] and the instrumented cipher never see
          it, so it never enters simulated memory. *)
}

(** [expand key] computes the full schedule, and [inv_words], from a
    raw key. *)
val expand : Bytes.t -> t

(** Round key [r] as 16 bytes. *)
val round_key : t -> int -> Bytes.t

(** The whole schedule serialised (16*(nr+1) bytes) — the in-memory
    layout the cold-boot scanner searches for. *)
val serialize : t -> Bytes.t

val schedule_bytes : t -> int

(** Does [b] at [off] satisfy the AES-128 key-expansion recurrence for
    a full 176-byte schedule? *)
val is_valid_128_schedule : Bytes.t -> int -> bool

(** Extract the original key from a schedule found in memory. *)
val key_of_128_schedule : Bytes.t -> int -> Bytes.t
