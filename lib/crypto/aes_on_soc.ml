(** AES_On_SoC (§6.2): an AES whose entire sensitive state — secret
    and access-protected alike — lives on the SoC, and whose use of
    CPU registers is protected against context-switch spills.

    Construction requires a base address in on-SoC storage (iRAM or a
    DRAM alias backed by a locked L2 way, provided by
    [Sentry_core.Onsoc]); the context never touches off-SoC memory.

    The computation bracket reproduces the paper's two macros:
    [onsoc_disable_irq()] before touching sensitive state in
    registers, and [onsoc_enable_irq()] — zero every register, then
    re-enable — after.  The procedure-call discipline (≤ 4 arguments,
    so nothing sensitive is passed on a DRAM stack) is checked by a
    test over this module's own interface. *)

open Sentry_soc

type storage = In_iram | In_locked_l2 | In_pinned

type t = {
  machine : Machine.t;
  storage : storage;
  base : int;
  mutable block : Aes_block.t;
  mutable fast_key : Aes.key; (* host-side key schedule for the bulk kernel *)
  scratch : Mode.scratch; (* reusable CBC chaining buffers *)
  chain : Bytes.t; (* batch-to-batch chaining block for [transform] *)
  head : Bytes.t; (* the key schedule head, read into registers under the bracket *)
  variant : Perf.variant;
  mutable rate : Perf.rate option; (* resolved at the first charge *)
}

let storage t = t.storage
let base t = t.base

let storage_name = function
  | In_iram -> "iRAM"
  | In_locked_l2 -> "locked L2"
  | In_pinned -> "pinned on-SoC memory"

(** [create machine ~storage ~base ~key] builds the cipher with its
    context at physical [base] (must lie in iRAM, or in a DRAM range
    whose lines are pinned in a locked way). *)
let create machine ~storage ~base ~key =
  let acc = Accessor.machine machine ~base in
  (* The context writes carry key-schedule material: label them. *)
  let block =
    Machine.with_taint machine Taint.Secret_cleartext (fun () -> Aes_block.init acc ~key)
  in
  let variant =
    match storage with
    | In_iram | In_pinned -> Perf.Onsoc_iram (* SRAM-class timing *)
    | In_locked_l2 -> Perf.Onsoc_locked_l2
  in
  {
    machine;
    storage;
    base;
    block;
    fast_key = Aes.expand key;
    scratch = Mode.make_scratch ();
    chain = Bytes.create 16;
    head = Bytes.create 64;
    variant;
    rate = None;
  }

(** Run [f] with sensitive state live in CPU registers, under the IRQ
    bracket.  A context switch cannot fire inside, and the registers
    are zeroed before interrupts come back on. *)
let with_protected_registers t ~sensitive f =
  let cpu = Machine.cpu t.machine in
  Cpu.with_irqs_off cpu (fun () ->
      Cpu.load_regs cpu ~taint:Taint.Secret_cleartext sensitive;
      f ())

(* The first 64 bytes of the on-SoC context (the key schedule head),
   read through the machine into [t.head]: the same simulated access,
   and charge, as an accessor load, without a fresh buffer. *)
let key_schedule_head t =
  Machine.read_into t.machine t.base t.head ~off:0 ~len:64;
  t.head

(* Block operations run in batches sized so interrupts stay off for
   roughly the paper's measured 160 us window. *)
let irq_batch_blocks = 64

let transform t ~(dir : [ `Encrypt | `Decrypt ]) ~iv data =
  let n = Bytes.length data in
  if n mod 16 <> 0 then invalid_arg "Aes_on_soc.transform: not block aligned";
  Aes_block.set_iv t.block iv;
  let cipher = Aes_block.cipher t.block in
  (* Process in IRQ-bracketed batches; each batch reloads sensitive
     registers and zeroes them on exit.  Batches index straight into
     [data]/[result] — no per-batch slices. *)
  let result = Bytes.create n in
  let nblocks = n / 16 in
  let pos = ref 0 in
  Bytes.blit iv 0 t.chain 0 16;
  while !pos < nblocks do
    let batch = min irq_batch_blocks (nblocks - !pos) in
    let off = !pos * 16 and len = batch * 16 in
    with_protected_registers t ~sensitive:(key_schedule_head t) (fun () ->
        match dir with
        | `Encrypt ->
            Mode.cbc_encrypt_into ~scratch:t.scratch cipher ~iv:t.chain ~src:data ~src_off:off
              ~dst:result ~dst_off:off ~len
        | `Decrypt ->
            Mode.cbc_decrypt_into ~scratch:t.scratch cipher ~iv:t.chain ~src:data ~src_off:off
              ~dst:result ~dst_off:off ~len);
    (* next batch chains off the last ciphertext block just handled *)
    (match dir with
    | `Encrypt -> Bytes.blit result (off + len - 16) t.chain 0 16
    | `Decrypt -> Bytes.blit data (off + len - 16) t.chain 0 16);
    pos := !pos + batch
  done;
  result

let encrypt t ~iv data = transform t ~dir:`Encrypt ~iv data
let decrypt t ~iv data = transform t ~dir:`Decrypt ~iv data

(* The fused register-chained kernel ([Aes.cbc_*_into]).  The decrypt
   kernel works in place and the encrypt kernel lets [src]/[dst] alias
   only at equal offsets, so any other layout blits the input into
   [dst] first and transforms it there. *)
let run_kernel t ~(dir : [ `Encrypt | `Decrypt ]) ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len =
  let nblocks = len / 16 in
  match dir with
  | `Encrypt when src != dst || src_off = dst_off ->
      Aes.cbc_encrypt_into t.fast_key ~iv ~iv_off src src_off dst dst_off nblocks
  | `Encrypt ->
      Bytes.blit src src_off dst dst_off len;
      Aes.cbc_encrypt_into t.fast_key ~iv ~iv_off dst dst_off dst dst_off nblocks
  | `Decrypt ->
      if src != dst || src_off <> dst_off then Bytes.blit src src_off dst dst_off len;
      Aes.cbc_decrypt_into t.fast_key ~iv ~iv_off dst dst_off nblocks

(* ---------------------- page transform memo ----------------------- *)

(* Whole-page transforms this domain has just computed, kept so that a
   page locked and unlocked again with its contents unchanged costs a
   compare and a copy instead of a CBC pass.  Under one key schedule
   and IV, CBC maps cleartext pages to ciphertext pages one to one, so
   one entry (key, IV, cleartext, ciphertext) answers both "encrypt
   the cleartext" and "decrypt the ciphertext".  A lookup hits only on
   the same key schedule object ([set_key] replaces it), equal IV
   bytes and an equal input page, compared in full: a hit writes
   exactly the bytes the kernel would.  Only host compute is reused;
   the modeled charge, trace span and every simulated byte are the
   caller's, as before.  The memo is host memory outside the simulated
   machine, like [fast_key].

   It is domain-local ([Domain.DLS]) rather than per instance: a fleet
   call boots a system per shard, and 1 MiB per instance would add up
   in peak RSS.  128 entries hold a fleet-churn shard's 76 sensitive
   pages.  Each field is one flat array, so that the lookup scans
   only the int prefilter [hashes] and touches an entry's key, IV and
   page only on a prefix match.  The page stores are allocated,
   uninitialised, on a domain's first page transform; an empty slot
   is never read, because its owner is [no_key]. *)

let memo_page = 4096
let memo_slots = 128

(* the first 8 IV bytes as an int, for the prefilter; a primitive, so
   the [int64] is never boxed *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

type memo = {
  owners : Aes.key array; (* [no_key] while an entry is empty or being refilled *)
  hashes : int array; (* the first 8 IV bytes of each entry, as an int *)
  used : int array; (* LRU stamps *)
  ivs : Bytes.t; (* 16 bytes per entry *)
  clears : Bytes.t; (* [memo_page] bytes per entry *)
  ciphers : Bytes.t;
  no_key : Aes.key;
  mutable tick : int;
}

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      (* a schedule no instance holds: [==] never matches it *)
      let no_key = Aes.expand (Bytes.make 16 '\000') in
      {
        owners = Array.make memo_slots no_key;
        hashes = Array.make memo_slots 0;
        used = Array.make memo_slots 0;
        ivs = Bytes.create (memo_slots * 16);
        clears = Bytes.create (memo_slots * memo_page);
        ciphers = Bytes.create (memo_slots * memo_page);
        no_key;
        tick = 0;
      })

(* The kernel for a whole page, through the memo.  At most one entry
   holds a given key and IV: a miss refills that entry if there is
   one, else the least recently used.  The input goes into the entry
   before the kernel runs, since the kernel may transform in place. *)
let memo_kernel t ~(dir : [ `Encrypt | `Decrypt ]) ~iv ~iv_off ~src ~src_off ~dst ~dst_off =
  let m = Domain.DLS.get memo_key in
  let key = t.fast_key and hash = Int64.to_int (get64 iv iv_off) in
  m.tick <- m.tick + 1;
  let same = ref (-1) and i = ref 0 in
  while !same < 0 && !i < memo_slots do
    if
      m.hashes.(!i) = hash
      && m.owners.(!i) == key
      && Sentry_util.Bytes_util.equal_view m.ivs (!i * 16) iv iv_off 16
    then same := !i;
    incr i
  done;
  let slot =
    if !same >= 0 then !same
    else begin
      let lru = ref 0 in
      for i = 1 to memo_slots - 1 do
        if m.used.(i) < m.used.(!lru) then lru := i
      done;
      !lru
    end
  in
  let input = match dir with `Encrypt -> m.clears | `Decrypt -> m.ciphers in
  let output = match dir with `Encrypt -> m.ciphers | `Decrypt -> m.clears in
  let page_off = slot * memo_page in
  m.used.(slot) <- m.tick;
  if !same >= 0 && Sentry_util.Bytes_util.equal_view input page_off src src_off memo_page then
    Bytes.blit output page_off dst dst_off memo_page
  else begin
    m.owners.(slot) <- m.no_key;
    Bytes.blit src src_off input page_off memo_page;
    run_kernel t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len:memo_page;
    Bytes.blit dst dst_off output page_off memo_page;
    Bytes.blit iv iv_off m.ivs (slot * 16) 16;
    m.hashes.(slot) <- hash;
    m.owners.(slot) <- key
  end

(* Host compute for [len] bytes: whole pages through the memo, any
   other length (512 B sectors) straight to the kernel, as is a view
   outside its buffer, so that [Aes] rejects it as before. *)
let kernel t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len =
  if
    len = memo_page && src_off >= 0
    && src_off + len <= Bytes.length src
    && dst_off >= 0
    && dst_off + len <= Bytes.length dst
  then memo_kernel t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off
  else run_kernel t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len

(* The instance's [Perf.rate], resolved at its first charge (resolving
   creates the "aes" energy category). *)
let rate t =
  match t.rate with
  | Some r -> r
  | None ->
      let r = Perf.rate t.machine t.variant in
      t.rate <- Some r;
      r

(* The modeled on-SoC cost of transforming [len] bytes, charged inside
   the IRQ bracket — exactly the window interrupts stay masked (§6.2) —
   with the bulk trace span.  The host-side kernel has no simulated
   effect, so it runs outside the bracket.  The bracket is spelled out
   rather than run through [with_protected_registers]'s closure: the
   key schedule head is read and the rate resolved before it (either
   may raise), and nothing inside it raises, so interrupts always come
   back on without a [Fun.protect]. *)
let charge t ~(dir : [ `Encrypt | `Decrypt ]) ~len =
  let clock = Machine.clock t.machine and cpu = Machine.cpu t.machine in
  let rate = rate t in
  let start_ns = clock.Clock.now_ns in
  let head = key_schedule_head t in
  Cpu.onsoc_disable_irq cpu;
  Cpu.load_regs cpu ~taint:Taint.Secret_cleartext head;
  Perf.charge_at rate ~bytes:len;
  Cpu.onsoc_enable_irq cpu;
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.span ~cat:Sentry_obs.Event.Crypto ~subsystem:"crypto.aes_on_soc" ~start_ns
      ~end_ns:clock.Clock.now_ns
      ~args:
        [
          ("storage", Sentry_obs.Event.Str (storage_name t.storage));
          ("bytes", Sentry_obs.Event.Int len);
        ]
      (match dir with `Encrypt -> "bulk-encrypt" | `Decrypt -> "bulk-decrypt")

(* The one checked body behind [bulk_into], [bulk_fused_into] and
   [bulk_fused_raw]: IV bounds, block alignment, then the charge (when
   [charged]) and the kernel call. *)
let cbc_into name ~charged t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len =
  if iv_off < 0 || iv_off + 16 > Bytes.length iv then invalid_arg (name ^ ": bad IV");
  if len mod 16 <> 0 then invalid_arg (name ^ ": not block aligned");
  if charged then charge t ~dir ~len;
  kernel t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len

(** Fast-path bulk transform, scatter-gather flavour: transform the
    [len]-byte view of [src] into [dst] with the fused kernel
    (bit-identical to the instrumented path) and charge the modeled
    on-SoC cost.  Register/IRQ discipline is still exercised; no
    allocation. *)
let bulk_into t ~dir ~iv ~src ~src_off ~dst ~dst_off ~len =
  cbc_into "Aes_on_soc.bulk_into" ~charged:true t ~dir ~iv ~iv_off:0 ~src ~src_off ~dst ~dst_off
    ~len

(** [bulk_into] with the IV at [iv_off] inside [iv], so a batch can
    reuse one IV buffer. *)
let bulk_fused_into t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len =
  cbc_into "Aes_on_soc.bulk_fused_into" ~charged:true t ~dir ~iv ~iv_off ~src ~src_off ~dst
    ~dst_off ~len

(** Host-side transform only: the same checked kernel with no
    [Perf.charge] and no IRQ bracket.  For engine models that account
    simulated time/energy themselves — the [Offload_engine] command
    queue — while ciphertext must stay bit-identical to the CPU path.
    The key never transits CPU registers here (it lives in the
    engine), so there is nothing to protect with an IRQ window. *)
let bulk_fused_raw t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len =
  cbc_into "Aes_on_soc.bulk_fused_raw" ~charged:false t ~dir ~iv ~iv_off ~src ~src_off ~dst
    ~dst_off ~len

(** Allocating wrapper over [bulk_into]; identical cost and trace. *)
let bulk t ~(dir : [ `Encrypt | `Decrypt ]) ~iv data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  bulk_into t ~dir ~iv ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:n;
  out

(** Re-key: rewrites the on-SoC context and the bulk-path key
    schedule together, so [bulk]/[bulk_into] never run a stale key. *)
let set_key t key =
  t.block <-
    Machine.with_taint t.machine Taint.Secret_cleartext (fun () ->
        Aes_block.init t.block.Aes_block.acc ~key);
  t.fast_key <- Aes.expand key

(** Register with a [Crypto_api] {e above} the generic cipher, so
    legacy Crypto-API users (dm-crypt) pick up AES_On_SoC
    transparently (§7). *)
let register t api =
  Crypto_api.register api
    {
      Crypto_api.name = "aes-on-soc";
      algorithm = "cbc(aes)";
      priority = 500;
      set_key = set_key t;
      encrypt = (fun ~iv data -> bulk t ~dir:`Encrypt ~iv data);
      decrypt = (fun ~iv data -> bulk t ~dir:`Decrypt ~iv data);
    }

(** Erase the on-SoC context (device shutdown / re-key). *)
let wipe t = Aes_block.wipe t.block
