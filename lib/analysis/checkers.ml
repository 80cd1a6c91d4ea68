(** The built-in invariant suite: one module per rule of the Sentry
    security argument, each phrased over taint provenance rather than
    content, so a passing run certifies the {e mechanism} (secrets
    never flowed off-SoC) and not just a lucky memory image.

    All rules are read-only: they inspect raw arrays, shadow stores
    and registers directly and never issue simulated CPU accesses that
    would themselves generate events. *)

open Sentry_soc
open Sentry_core
open Sentry_kernel
open Checker

let machine sentry = System.machine (Sentry.system sentry)

(* Transition events fire after the state is updated, so "the device
   is now locked" is just [Sentry.is_locked]. *)
let locked_event sentry = function
  | Transition { new_state = Lock_state.Locked | Lock_state.Deep_locked; _ } | On_demand ->
      Sentry.is_locked sentry
  | Transition _ | Bus_txn _ | Eviction _ | Dma_read _ -> false

let secret = Taint.Secret_cleartext
let is_secret l = Taint.rank l >= Taint.rank secret

(** No byte of DRAM may carry secret-cleartext taint while the device
    is locked — the paper's core claim (§2): everything off-SoC is
    ciphertext by the time the lock completes. *)
module No_secret_in_dram = struct
  type t = { addr : int; len : int }

  let name = "no-cleartext-secret-in-dram-while-locked"

  let check sentry event =
    if not (locked_event sentry event) then []
    else
      let dram = Machine.dram (machine sentry) in
      match Dram.shadow dram with
      | None -> []
      | Some sh ->
          let base = (Dram.region dram).Memmap.base in
          Taint.runs sh ~level:secret
          |> List.map (fun (off, len) -> { addr = base + off; len })

  let is_problematic _ = true

  let to_string f =
    Printf.sprintf "secret cleartext in DRAM at 0x%08x (%d bytes) while locked" f.addr f.len
end

(** No secret-cleartext bytes may cross the external memory bus while
    locked: a FuturePlus-style probe (§3.1) sees every transaction. *)
module No_tainted_bus = struct
  type t = Bus.transaction

  let name = "no-tainted-bus-transaction-while-locked"

  let check sentry event =
    match event with
    | Bus_txn txn when Sentry.is_locked sentry && is_secret txn.Bus.taint -> [ txn ]
    | _ -> []

  let is_problematic _ = true

  let to_string txn =
    Fmt.str "secret-tainted bus transaction while locked: %a" Bus.pp_transaction txn
end

(** A dirty line in a locked way must never be written back: lockdown
    is the {e only} thing keeping locked-L2 secrets inside the SoC
    (§4.2, §4.5 — the stock-flush hazard). *)
module Locked_way_never_evicted = struct
  type t = { way : int; addr : int }

  let name = "locked-way-never-evicted"

  let check _sentry event =
    match event with
    | Eviction { way; addr; locked = true } -> [ { way; addr } ]
    | _ -> []

  let is_problematic _ = true

  let to_string f =
    Printf.sprintf "line 0x%08x evicted from locked way %d to DRAM" f.addr f.way
end

(** The register file must carry no secret taint once the device is
    locked/suspended: a context switch spills registers to a DRAM
    kernel stack, which is why [onsoc_enable_irq] zeroes them (§6.2). *)
module Registers_clean_on_suspend = struct
  type t = Taint.level

  let name = "registers-clean-on-suspend"

  let check sentry event =
    if not (locked_event sentry event) then []
    else
      let level = Cpu.reg_taint (Machine.cpu (machine sentry)) in
      if is_secret level then [ level ] else []

  let is_problematic _ = true

  let to_string level =
    Printf.sprintf "register file carries %s taint while locked" (Taint.to_string level)
end

(** Every frame freed by a sensitive process must be scrubbed before
    the lock completes — the freed-page barrier of §7 (stock Linux
    zeroes "eventually", which is too late). *)
module Freed_pages_zeroed = struct
  type t = { frame : int; level : Taint.level }

  let name = "freed-pages-zeroed-before-lock"

  let check sentry event =
    match event with
    | Transition { new_state = Lock_state.Locked | Lock_state.Deep_locked; _ } ->
        let m = machine sentry in
        let sys = Sentry.system sentry in
        Frame_alloc.pending_dirty sys.System.frames
        |> List.filter_map (fun frame ->
               let level = Machine.taint_of m frame Page.size in
               if is_secret level then Some { frame; level } else None)
    | _ -> []

  let is_problematic _ = true

  let to_string f =
    Printf.sprintf "freed frame 0x%08x still %s at lock time" f.frame (Taint.to_string f.level)
end

(** Secrets parked in iRAM must sit behind a TrustZone DMA deny
    window: iRAM is ordinary memory to a DMA engine (§4.4). *)
module Dma_window_excludes_iram = struct
  type t = { addr : int; len : int; via : [ `Window | `Observed_read ] }

  let name = "dma-window-excludes-iram"

  let check sentry event =
    match event with
    | Transition _ | On_demand -> (
        let m = machine sentry in
        let iram = Machine.iram m in
        match Sram.shadow iram with
        | None -> []
        | Some sh ->
            let base = (Sram.region iram).Memmap.base in
            let tz = Machine.trustzone m in
            Taint.runs sh ~level:secret
            |> List.filter_map (fun (off, len) ->
                   let addr = base + off in
                   if Trustzone.dma_allowed tz ~addr ~len then Some { addr; len; via = `Window }
                   else None))
    | Dma_read { addr; len; taint } when is_secret taint -> [ { addr; len; via = `Observed_read } ]
    | Bus_txn _ | Eviction _ | Dma_read _ -> []

  let is_problematic _ = true

  let to_string f =
    match f.via with
    | `Window ->
        Printf.sprintf "secret bytes at 0x%08x (%d bytes) are inside an open DMA window" f.addr
          f.len
    | `Observed_read ->
        Printf.sprintf "DMA read of secret bytes at 0x%08x (%d bytes) completed" f.addr f.len
end

(** The root keys exist only in the fuse and on-SoC storage: their
    bytes must never appear in the DRAM array, nor in unlocked cache
    ways (whose lines eventually write back).  Content-based on
    purpose — this rule guards against flows the taint plumbing itself
    might miss. *)
module Root_key_confined = struct
  type t = { key : string; where : string; addr : int }

  let name = "root-key-confined-to-fuse-and-iram"

  let key_findings m ~label key =
    let found = ref [] in
    (match Sentry_util.Bytes_util.find (Dram.raw (Machine.dram m)) key with
    | Some off ->
        let addr = (Dram.region (Machine.dram m)).Memmap.base + off in
        found := { key = label; where = "DRAM"; addr } :: !found
    | None -> ());
    let l2 = Machine.l2 m in
    let lockdown = Pl310.lockdown l2 in
    let len = Pl310.line_size l2 in
    Pl310.iter_resident l2 (fun ~way ~addr store ~off ->
        if
          lockdown land (1 lsl way) = 0
          && Option.is_some (Sentry_util.Bytes_util.find_in store ~off ~len key)
        then
          found := { key = label; where = Printf.sprintf "unlocked L2 way %d" way; addr } :: !found);
    !found

  let check sentry event =
    match event with
    | Transition { new_state = Lock_state.Locked | Lock_state.Deep_locked; _ } | On_demand ->
        let m = machine sentry in
        let keys = Sentry.key_manager sentry in
        let vol = key_findings m ~label:"volatile" (Key_manager.volatile_key keys) in
        let pers =
          match Key_manager.persistent_key keys with
          | Some k -> key_findings m ~label:"persistent" k
          | None -> []
        in
        vol @ pers
    | Transition _ | Bus_txn _ | Eviction _ | Dma_read _ -> []

  let is_problematic _ = true

  let to_string f = Printf.sprintf "%s root key found in %s at 0x%08x" f.key f.where f.addr
end

(** While locked, [Lock_state], the PTE [encrypted]/[young] bits and
    scheduler parking must agree — the invariant an interrupted lock
    walk breaks and [Sentry.recover] restores.  "No cleartext after an
    interrupted lock": every present page of a should-encrypt region
    is ciphertext with its young bit clear (unless resident in locked
    cache via the background pager, or mapping-revoked by the
    [No_access] backend — whose cleartext-in-DRAM concession the
    cold-boot/DMA checkers score instead), and every non-background
    sensitive process is parked un-schedulable. *)
module Locked_state_consistent = struct
  type t =
    | Cleartext_page of { pid : int; vpn : int }
    | Stale_young of { pid : int; vpn : int }
    | Not_parked of { pid : int; pname : string }

  let name = "locked-state-consistent"

  (** The pure audit, independent of the event stream — the fault
      suite calls this directly after recovery. *)
  let audit sentry =
    let sys = Sentry.system sentry in
    let bg = Sentry.background_processes sentry in
    Sentry.sensitive_processes sentry
    |> List.concat_map (fun (proc : Process.t) ->
           let pid = proc.Process.pid in
           let page_findings =
             Address_space.regions proc.Process.aspace
             |> List.concat_map (fun region ->
                    if not (Share_policy.should_encrypt ~all_procs:sys.System.procs region)
                    then []
                    else
                      Address_space.region_ptes proc.Process.aspace region
                      |> List.filter_map (fun (vpn, pte) ->
                             if not pte.Page_table.present then None
                             else if pte.Page_table.backing <> None then
                               (* resident in a locked-cache page: the
                                  cleartext never reaches DRAM *)
                               None
                             else if pte.Page_table.no_access then
                               (* No_access backend: the mapping is
                                  revoked, so the page is protected in
                                  this rule's sense (the CPU cannot
                                  reach it) even though DRAM keeps
                                  cleartext — the cold-boot/DMA
                                  checkers score that concession *)
                               if pte.Page_table.young then Some (Stale_young { pid; vpn })
                               else None
                             else if not pte.Page_table.encrypted then
                               Some (Cleartext_page { pid; vpn })
                             else if pte.Page_table.young then Some (Stale_young { pid; vpn })
                             else None))
           in
           let parked =
             if
               List.memq proc bg
               || (not (List.memq proc sys.System.procs))
               || proc.Process.state = Process.Locked_out
             then []
             else [ Not_parked { pid; pname = proc.Process.name } ]
           in
           page_findings @ parked)

  let check sentry event = if locked_event sentry event then audit sentry else []

  let is_problematic _ = true

  let to_string = function
    | Cleartext_page { pid; vpn } ->
        Printf.sprintf "pid %d page %d is cleartext in DRAM while locked" pid vpn
    | Stale_young { pid; vpn } ->
        Printf.sprintf "pid %d page %d has a stale young bit while locked" pid vpn
    | Not_parked { pid; pname } ->
        Printf.sprintf "sensitive process %s (pid %d) still schedulable while locked" pname pid
end

(** Every built-in rule, in evaluation order. *)
let all : packed list =
  [
    Packed (module No_secret_in_dram);
    Packed (module No_tainted_bus);
    Packed (module Locked_way_never_evicted);
    Packed (module Registers_clean_on_suspend);
    Packed (module Freed_pages_zeroed);
    Packed (module Dma_window_excludes_iram);
    Packed (module Root_key_confined);
    Packed (module Locked_state_consistent);
  ]

let names = List.map packed_name all
