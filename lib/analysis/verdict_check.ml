(** Cross-check: re-derive the Table 3 security matrix from taint
    provenance and compare against [Sentry_attacks.Verdict], which
    derives it from content (actually mounting each attack and
    grepping the dumps).

    The two computations share nothing but the secret-placement code,
    so agreement on every (attack, storage) cell is strong evidence
    that the shadow plumbing models the same flows the attacks
    exploit. *)

open Sentry_soc
open Sentry_attacks

let secret = Taint.Secret_cleartext

(* Same decay tolerance as [Cold_boot.succeeds]: error-correcting
   tooling reconstructs a key from ~85% of its bytes. *)
let decay_tolerance = 0.85

let seed_for storage attack =
  Hashtbl.hash (Verdict.storage_name storage, Verdict.attack_name attack, "taint")

(** One cell from provenance: [true] = no secret-cleartext taint is
    reachable by this attack. *)
let analyzer_safe ~(storage : Verdict.storage) ~(attack : Verdict.attack) =
  let seed = seed_for storage attack in
  let len = Bytes.length Verdict.secret in
  match attack with
  | Verdict.Cold_boot_attack ->
      (* Reflash, then ask whether a decay-tolerant window of secret
         taint survives anywhere an imaging attacker can see.
         [Dram.power_cycle] clears the shadow of every byte that
         decayed, so the fuzzy window models exactly what the
         error-corrected scan could still reconstruct. *)
      let _, machine, _ = Verdict.place_secret ~track_taint:true ~seed storage in
      Machine.reboot machine Machine.Reflash;
      let in_dram =
        match Dram.shadow (Machine.dram machine) with
        | Some sh -> Taint.fuzzy_window sh ~level:secret ~len ~min_match:decay_tolerance
        | None -> false
      in
      let in_iram =
        match Sram.shadow (Machine.iram machine) with
        | Some sh -> Taint.fuzzy_window sh ~level:secret ~len ~min_match:decay_tolerance
        | None -> false
      in
      not (in_dram || in_iram)
  | Verdict.Dma_memory_attack ->
      (* Any secret-tainted run that sits inside an open DMA window is
         reachable by a device-initiated read. *)
      let _, machine, _ = Verdict.place_secret ~track_taint:true ~seed storage in
      let tz = Machine.trustzone machine in
      let reachable mem_shadow base =
        match mem_shadow with
        | None -> false
        | Some sh ->
            Taint.runs sh ~level:secret
            |> List.exists (fun (off, len) -> Trustzone.dma_allowed tz ~addr:(base + off) ~len)
      in
      let dram = Machine.dram machine and iram = Machine.iram machine in
      not
        (reachable (Dram.shadow dram) (Dram.region dram).Memmap.base
        || reachable (Sram.shadow iram) (Sram.region iram).Memmap.base)
  | Verdict.Bus_monitoring_attack ->
      (* Replicate [Verdict.safe]'s victim access pattern and watch the
         taint of every bus transaction instead of its payload. *)
      let _, machine, addr = Verdict.place_secret ~track_taint:true ~seed storage in
      let leaked = ref false in
      let detach =
        Bus.attach_monitor (Machine.bus machine) (fun txn ->
            if Taint.rank txn.Bus.taint >= Taint.rank secret then leaked := true)
      in
      (match storage with
      | Verdict.Plain_dram -> ignore (Machine.read machine addr len)
      | Verdict.Iram_storage | Verdict.Locked_l2_storage ->
          ignore (Machine.read machine addr len);
          Machine.with_taint machine secret (fun () -> Machine.write machine addr Verdict.secret));
      Pl310.flush_masked (Machine.l2 machine);
      detach ();
      not !leaked

type cell = {
  attack : Verdict.attack;
  storage : Verdict.storage;
  verdict_safe : bool;  (** content-based: the attack was mounted *)
  analyzer_safe : bool;  (** provenance-based: taint reachability *)
}

let cell_agrees c = Bool.equal c.verdict_safe c.analyzer_safe

(** Every (attack, storage) cell, both ways. *)
let agreement () =
  Verdict.matrix ()
  |> List.map (fun (attack, storage, verdict_safe) ->
         { attack; storage; verdict_safe; analyzer_safe = analyzer_safe ~storage ~attack })

(** [true] iff the analyzer agrees with the mounted attacks on every
    cell. *)
let agrees () = List.for_all cell_agrees (agreement ())

let pp_cell ppf c =
  let show b = if b then "safe" else "UNSAFE" in
  Fmt.pf ppf "%-15s vs %-17s  attack:%-6s  taint:%-6s  %s"
    (Verdict.attack_name c.attack)
    (Verdict.storage_name c.storage)
    (show c.verdict_safe) (show c.analyzer_safe)
    (if cell_agrees c then "agree" else "DISAGREE")

let report () =
  let cells = agreement () in
  let buf = Buffer.create 256 in
  List.iter (fun c -> Buffer.add_string buf (Fmt.str "%a\n" pp_cell c)) cells;
  Buffer.add_string buf
    (if List.for_all cell_agrees cells then "analyzer agrees with Verdict.matrix on every cell\n"
     else "DISAGREEMENT between analyzer and Verdict.matrix\n");
  Buffer.contents buf
