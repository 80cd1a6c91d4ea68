(** Unified on-SoC storage: iRAM or locked-L2, behind one allocator
    interface, so the rest of Sentry is agnostic to which §4
    alternative the platform offers. *)

open Sentry_soc

type t =
  | Iram_storage of Iram_alloc.t
  | Locked_storage of Locked_cache.t
  | Pinned_storage of Iram_alloc.t (* §10 pin-on-SoC memory *)

let of_config machine (config : Config.t) ~arena_base =
  match config.Config.storage with
  | Config.Use_iram -> Iram_storage (Iram_alloc.create machine)
  | Config.Use_locked_l2 ->
      Locked_storage (Locked_cache.create machine ~arena_base ~max_ways:config.Config.max_locked_ways)
  | Config.Use_pinned -> (
      match Machine.pinned machine with
      | Some pm ->
          let region = Sram.region pm in
          Pinned_storage
            (Iram_alloc.create_range ~base:region.Memmap.base ~limit:(Memmap.limit region))
      | None -> invalid_arg "Onsoc: platform has no pinned on-SoC memory")

let describe = function
  | Iram_storage _ -> "iRAM"
  | Locked_storage _ -> "locked L2 cache"
  | Pinned_storage _ -> "pinned on-SoC memory (S10)"

(** [alloc t ~bytes] — an on-SoC buffer.  Locked-L2 storage is page
    granular; iRAM is byte granular. *)
let alloc t ~bytes =
  match t with
  | Iram_storage a | Pinned_storage a -> (
      match Iram_alloc.alloc a ~bytes with
      | Some addr -> addr
      | None -> failwith "Onsoc.alloc: on-SoC storage exhausted")
  | Locked_storage lc ->
      if bytes > 4096 then failwith "Onsoc.alloc: locked-L2 allocations are page-sized";
      Locked_cache.alloc_page lc

let free t addr =
  match t with
  | Iram_storage a | Pinned_storage a -> Iram_alloc.free a addr
  | Locked_storage lc -> Locked_cache.free_page lc addr

(** TrustZone hardening: deny all DMA windows over the storage.  For
    iRAM this is {e required} — iRAM is ordinary memory to a DMA
    engine (§4.4).  Locked-L2 contents are invisible to DMA anyway
    (transfers bypass the cache), but the arena region is denied too
    so a DMA {e write} cannot plant data under the locked lines. *)
let protect_from_dma t machine =
  let tz = Machine.trustzone machine in
  Trustzone.with_secure_world tz (fun () ->
      match t with
      | Iram_storage _ -> Trustzone.deny_dma tz (Machine.iram_region machine)
      | Locked_storage lc ->
          Trustzone.deny_dma tz
            (Memmap.region ~base:lc.Locked_cache.arena_base
               ~size:(Locked_cache.arena_bytes ~machine ~max_ways:lc.Locked_cache.max_ways))
      | Pinned_storage _ ->
          (* nothing to program: DMA cannot decode this memory at all —
             the hardware guarantee §10 asks for *)
          ())
