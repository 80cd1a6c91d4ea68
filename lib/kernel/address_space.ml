(** A process's virtual address space: a page table plus typed
    regions.

    Region kinds matter to Sentry's policy (§7):
    - [Normal] memory is encrypted at lock and lazily decrypted;
    - [Dma] regions (GPU buffers, I/O rings) never fault on device
      access, so they are decrypted {e eagerly} at unlock;
    - [Shared] pages are only encrypted if every process sharing them
      is sensitive. *)


type kind = Normal | Dma | Shared of string (* sharing group label *)

type region = { name : string; kind : kind; vstart : int; npages : int }

type t = {
  frames : Frame_alloc.t;
  table : Page_table.t;
  mutable regions : region list;
  mutable next_vaddr : int;
}

let create _machine ~frames =
  { frames; table = Page_table.create (); regions = []; next_vaddr = 0x1000_0000 }

let table t = t.table
let regions t = List.rev t.regions

(** [map_region t ~name ~kind ~bytes] allocates frames and maps a
    fresh region; returns it. *)
let map_region t ~name ~kind ~bytes =
  let npages = Page.count_of_bytes bytes in
  let vstart = t.next_vaddr in
  t.next_vaddr <- t.next_vaddr + Page.addr_of_vpn npages + Page.size (* guard page *);
  for i = 0 to npages - 1 do
    let frame = Frame_alloc.alloc t.frames in
    Page_table.set t.table ~vpn:(Page.vpn_of vstart + i) (Page_table.make_pte ~frame)
  done;
  let region = { name; kind; vstart; npages } in
  t.regions <- region :: t.regions;
  region

(** [share_region t ~from_space region] maps [region]'s frames into
    [t] at the same virtual addresses (shared memory). *)
let share_region t ~from_space (region : region) =
  List.iter
    (fun r -> if r.vstart = region.vstart then invalid_arg "share_region: overlap")
    t.regions;
  for i = 0 to region.npages - 1 do
    let vpn = Page.vpn_of region.vstart + i in
    match Page_table.find (table from_space) ~vpn with
    | Some pte -> Page_table.set t.table ~vpn pte (* aliased entry *)
    | None -> invalid_arg "share_region: source page missing"
  done;
  t.regions <- region :: t.regions

(** [unmap_region t region] removes the mapping and frees the frames
    (they land on the dirty list — the freed-page hazard). *)
let unmap_region t (region : region) =
  for i = 0 to region.npages - 1 do
    let vpn = Page.vpn_of region.vstart + i in
    (match Page_table.find t.table ~vpn with
    | Some pte -> Frame_alloc.free t.frames pte.Page_table.frame
    | None -> ());
    Page_table.remove t.table ~vpn
  done;
  t.regions <- List.filter (fun r -> r.vstart <> region.vstart) t.regions

let region_bytes (r : region) = r.npages * Page.size

let total_bytes t =
  List.fold_left (fun acc r -> acc + region_bytes r) 0 t.regions

let find_region t ~name = List.find_opt (fun r -> r.name = name) t.regions

(** All PTEs of a region, in page order. *)
let region_ptes t (region : region) =
  List.init region.npages (fun i ->
      let vpn = Page.vpn_of region.vstart + i in
      match Page_table.find t.table ~vpn with
      | Some pte -> (vpn, pte)
      | None -> invalid_arg "region_ptes: hole in region")

(** [iter_region_ptes t region f] calls [f vpn pte] for every PTE of
    [region], in page order: the pairs of [region_ptes], without
    building the list.  A hole raises when the walk reaches it, after
    [f] has seen the pages before it. *)
let iter_region_ptes t (region : region) f =
  let vpn0 = Page.vpn_of region.vstart in
  for i = 0 to region.npages - 1 do
    let vpn = vpn0 + i in
    match Page_table.find_exn t.table ~vpn with
    | pte -> f vpn pte
    | exception Not_found -> invalid_arg "iter_region_ptes: hole in region"
  done
