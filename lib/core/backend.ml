(** The protection backends (ROADMAP item 3).

    A backend is one complete strategy for protecting sensitive memory
    across a lock/unlock cycle: a lock walk, an unlock walk, the lazy
    fault handler installed while unlocked, the eager-everything
    ablation and a crash-recovery teardown.  There is one walk per job;
    each takes the [kind] and matches on it where the backends differ.
    [Sentry] stores the kind and guards switching
    ([Sentry.set_backend]) to the [Unlocked] state.

    Three kinds:
    - [Batched] — the paper's encrypt-on-lock through the
      gather/sort/batch engine (the default);
    - [Offload] — MemShield-inspired: the same batch engine, with each
      page submitted to a deep high-throughput, high-fixed-latency
      command queue ([Offload_engine]) instead of charging the CPU;
    - [No_access] — MProtect-inspired: locked pages become
      inaccessible instead of encrypted; DRAM keeps cleartext (cold
      boot/DMA succeed by design — Table 3 flips), lock is nearly
      free, faults are mapping restores. *)

type kind = Batched | Offload | No_access

let kind_name = function
  | Batched -> "batched"
  | Offload -> "offload"
  | No_access -> "no-access"

let kind_of_string = function
  | "batched" -> Some Batched
  | "offload" -> Some Offload
  | "no-access" | "no_access" -> Some No_access
  | _ -> None

let all_kinds = [ Batched; Offload; No_access ]
