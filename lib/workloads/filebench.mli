(** A filebench-like engine for Fig 9: fileset creation (warming the
    cache), then randread / randrw / seqread personalities through the
    page cache or with direct I/O, over no-crypto / generic-AES /
    Sentry storage stacks. *)

open Sentry_kernel

type crypto = No_crypto | Generic_aes | Sentry_aes

val crypto_name : crypto -> string

type workload = Randread | Randrw | Seqread

val workload_name : workload -> string

type setup = {
  system : Sentry_core.System.t;
  fs_cached : Ramfs.t;
  fs_direct : Ramfs.t;
  cache : Buffer_cache.t;
  nfiles : int;
  file_size : int;
}

(** Build the storage stack and create the fileset.  For [Sentry_aes]
    the caller must have installed Sentry first (so AES_On_SoC is in
    the system Crypto API). *)
val prepare : Sentry_core.System.t -> crypto:crypto -> fileset_mb:int -> nfiles:int -> setup

type result = {
  bytes_moved : int;
  elapsed_ns : float;
  throughput_mb_s : float;
  cache_hit_rate : float;
}

val run : setup -> workload -> direct_io:bool -> ops:int -> seed:int -> result
