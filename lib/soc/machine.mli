(** The assembled platform: two configurations mirroring the paper's
    prototypes ([tegra3]: cache locking + TrustZone + no accelerator;
    [nexus4]: locked firmware, iRAM only, crypto accelerator). *)

open Sentry_util

type config = {
  name : string;
  dram_size : int;
  iram_size : int;
  cache_locking_available : bool;
  has_crypto_accel : bool;
  trustzone_available : bool;
  has_pinned_memory : bool;  (** the §10 future-architecture feature *)
}

val tegra3 : ?dram_size:int -> unit -> config
val nexus4 : ?dram_size:int -> unit -> config

(** The hypothetical §10 platform: Tegra-class plus pin-on-SoC
    memory. *)
val future : ?dram_size:int -> unit -> config

type t

val create : ?seed:int -> config -> t

val config : t -> config
val clock : t -> Clock.t
val energy : t -> Energy.t
val prng : t -> Prng.t
val bus : t -> Bus.t
val dram : t -> Dram.t
val iram : t -> Sram.t
val l2 : t -> Pl310.t
val fuse : t -> Fuse.t
val trustzone : t -> Trustzone.t
val dma : t -> Dma.t
val cpu : t -> Cpu.t

(** The pin-on-SoC memory, on platforms that have it. *)
val pinned : t -> Sram.t option

(** Current simulated time (ns). *)
val now : t -> float

val dram_region : t -> Memmap.region
val iram_region : t -> Memmap.region
val in_dram : t -> int -> bool

(** {2 Taint tracking}

    Off (and free) by default.  [enable_taint] allocates shadow-byte
    stores mirroring DRAM, iRAM, the L2 lines and pinned memory;
    writers then label their stores via [with_taint]. *)

(** Allocate every shadow store.  Idempotent. *)
val enable_taint : t -> unit

val taint_enabled : t -> bool

(** [with_taint t level f] — run [f] with every CPU store it performs
    labelled [level].  Nests; innermost label wins; exception-safe. *)
val with_taint : t -> Taint.level -> (unit -> 'a) -> 'a

(** The label currently applied to CPU stores ([Public] outside any
    [with_taint]). *)
val ambient_taint : t -> Taint.level

(** Taint join over a physical range, seen through the cache for DRAM
    addresses.  [Public] when tracking is off or the range is
    unmapped. *)
val taint_of : t -> int -> int -> Taint.level

exception Bus_fault of int

(** Cached CPU read/write: DRAM addresses go through the L2, iRAM is
    served on-SoC.  @raise Bus_fault on unmapped addresses. *)
val read : t -> int -> int -> Bytes.t

val write : t -> int -> Bytes.t -> unit

(** Scatter-gather variants: [read_into] fills [buf] at [off],
    [write_from] stores the [len]-byte view of [buf] at [off].  The
    allocating pair above is implemented on top and charges
    identically. *)
val read_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

val write_from : t -> int -> Bytes.t -> off:int -> len:int -> unit

(** [write_labelled t level addr buf ~off ~len] — [write_from] with
    the stored bytes labelled [level], as under [with_taint t level],
    but with no closure allocated.  The previous ambient label is back
    in place when it returns or raises. *)
val write_labelled : t -> Taint.level -> int -> Bytes.t -> off:int -> len:int -> unit

(** Page-run aliases of [read_into] / [write_from], kept for the
    benchmark's callers.  The L2 has one access path. *)
val read_run_into : t -> int -> Bytes.t -> off:int -> len:int -> unit

val write_run_from : t -> int -> Bytes.t -> off:int -> len:int -> unit

(** Uncached CPU access: straight to DRAM over the bus. *)
val read_uncached : t -> int -> int -> Bytes.t

val write_uncached : t -> int -> Bytes.t -> unit

(** Bulk raw store with no per-access charging, for operations whose
    cost is modeled wholesale (e.g. the zeroing thread); drops stale
    cache lines over the range. *)
val write_raw : t -> int -> Bytes.t -> unit

val read_byte : t -> int -> char
val write_byte : t -> int -> char -> unit

(** Charge pure compute time (no memory traffic). *)
val compute : t -> ns:float -> unit

type reboot =
  | Warm  (** OS reboot: no power loss; boot overwrites low DRAM *)
  | Reflash  (** short power disconnect; firmware wipes on-SoC state *)
  | Hard_reset of float  (** power removed for the given seconds *)

(** The three Table 2 reset variants. *)
val reboot : t -> reboot -> unit
