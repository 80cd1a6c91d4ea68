(* Differential tests for the zero-allocation crypto fast path: the
   in-place [_into] cipher modes and the cached-cipher bulk path must
   produce bit-identical bytes — and, on the SoC, bit-identical
   simulated clock/energy — to the allocating entry points. *)

open Sentry_util
open Sentry_soc
open Sentry_crypto

let check_bytes = Alcotest.(check bytes)
let checkf = Alcotest.(check (float 0.0)) (* exact: bit-identity, not tolerance *)

let key = Bytes.of_string "sixteen byte key"
let iv = Bytes.init 16 (fun i -> Char.chr (0x30 + i))
let cipher () = Mode.of_key (Aes.expand key)
let payload n = Bytes.init n (fun i -> Char.chr ((i * 11) land 0xff))

(* ------------------------ mode _into twins ------------------------ *)

let test_cbc_into_matches_allocating () =
  let c = cipher () in
  List.iter
    (fun n ->
      let data = payload n in
      let expected = Mode.cbc_encrypt c ~iv data in
      (* out-of-place, at a shifted view inside an oversized buffer *)
      let src = Bytes.make (n + 24) '\x5a' in
      Bytes.blit data 0 src 16 n;
      let dst = Bytes.make (n + 8) '\x00' in
      Mode.cbc_encrypt_into c ~iv ~src ~src_off:16 ~dst ~dst_off:8 ~len:n;
      check_bytes "cbc encrypt view" expected (Bytes.sub dst 8 n);
      let back = Bytes.make n '\x00' in
      Mode.cbc_decrypt_into c ~iv ~src:dst ~src_off:8 ~dst:back ~dst_off:0 ~len:n;
      check_bytes "cbc decrypt view" data back)
    [ 16; 64; 4096 ]

let test_cbc_into_in_place () =
  let c = cipher () in
  let data = payload 4096 in
  let expected = Mode.cbc_encrypt c ~iv data in
  let buf = Bytes.copy data in
  let scratch = Mode.make_scratch () in
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096;
  check_bytes "in-place encrypt" expected buf;
  Mode.cbc_decrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096;
  check_bytes "in-place decrypt" data buf

let test_scratch_reuse_is_stateless () =
  let c = cipher () in
  let scratch = Mode.make_scratch () in
  let data = payload 256 in
  let one = Bytes.copy data and two = Bytes.copy data in
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:one ~src_off:0 ~dst:one ~dst_off:0 ~len:256;
  (* a second transform through the same scratch must not be affected
     by whatever the first left behind *)
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:two ~src_off:0 ~dst:two ~dst_off:0 ~len:256;
  check_bytes "scratch carries no state" one two

let test_cbc_into_rejects_bad_iv () =
  let c = cipher () in
  let buf = payload 32 in
  Alcotest.check_raises "short iv" (Invalid_argument "Mode.cbc_encrypt_into: bad IV") (fun () ->
      Mode.cbc_encrypt_into c ~iv:(Bytes.create 8) ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:32)

(* -------------------- AES against a table-free oracle -------------- *)

(* [Mode] is built on [Aes.decrypt_block] itself, so the differentials
   above cannot catch a wrong inverse cipher that is wrong the same way
   in both.  [Aes_ct] shares no table, no decryption schedule and no
   round code with [Aes]: it is the independent oracle. *)

(* [Aes_ct] block by block: ECB, and CBC derived from it by XORing
   each block with the previous ciphertext block (the IV for the
   first). *)
let ct_ecb_decrypt key data =
  let out = Bytes.create (Bytes.length data) in
  for j = 0 to (Bytes.length data / 16) - 1 do
    Aes_ct.decrypt_block key data (16 * j) out (16 * j)
  done;
  out

let cbc_of_ecb ~iv data ecb =
  Bytes.mapi
    (fun o c ->
      let prev = if o < 16 then Bytes.get iv o else Bytes.get data (o - 16) in
      Char.chr (Char.code c lxor Char.code prev))
    ecb

let ct_cbc_encrypt key ~iv data =
  let n = Bytes.length data in
  let out = Bytes.create n and prev = Bytes.copy iv in
  for j = 0 to (n / 16) - 1 do
    for b = 0 to 15 do
      Bytes.set prev b
        (Char.chr (Char.code (Bytes.get prev b) lxor Char.code (Bytes.get data ((16 * j) + b))))
    done;
    Aes_ct.encrypt_block key prev 0 out (16 * j);
    Bytes.blit out (16 * j) prev 0 16
  done;
  out

(* A random key of each size, 0-300 blocks of random data at a random
   offset inside a larger buffer, and a random IV at a random offset
   inside its own buffer. *)
let oracle_case =
  let open QCheck in
  let gen =
    Gen.(
      let* klen = oneofl [ 16; 24; 32 ] in
      let* key = string_size (return klen) in
      let* nblocks = int_range 0 300 in
      let* data = string_size (return (16 * nblocks)) in
      let* off = int_range 0 40 in
      let* iv_off = int_range 0 24 in
      let* iv_buf = string_size (return (iv_off + 16 + 8)) in
      return (key, data, off, iv_off, iv_buf))
  in
  make
    ~print:(fun (key, data, off, iv_off, _) ->
      Printf.sprintf "%d-bit key, %d blocks, off %d, iv_off %d" (8 * String.length key)
        (String.length data / 16) off iv_off)
    gen

(* Embed [data] at [off] in a buffer with 8 guard bytes after it. *)
let embed data off =
  let n = Bytes.length data in
  let buf = Bytes.make (off + n + 8) '\xa5' in
  Bytes.blit data 0 buf off n;
  buf

(* Every byte of [buf] outside [off, off+len) is still the fill byte. *)
let guards_intact buf off len =
  let ok = ref true in
  Bytes.iteri (fun i c -> if (i < off || i >= off + len) && c <> '\xa5' then ok := false) buf;
  !ok

let qcheck_oracle =
  [
    QCheck.Test.make ~name:"cbc_decrypt_into and decrypt_block = chained Aes_ct" ~count:40
      oracle_case (fun (key, data, off, iv_off, iv_buf) ->
        let key = Bytes.of_string key and data = Bytes.of_string data in
        let iv_buf = Bytes.of_string iv_buf in
        let fast = Aes.expand key and ct = Aes_ct.expand key in
        let n = Bytes.length data and nblocks = Bytes.length data / 16 in
        let want_blocks = ct_ecb_decrypt ct data in
        let want = cbc_of_ecb ~iv:(Bytes.sub iv_buf iv_off 16) data want_blocks in
        let buf = embed data off in
        Aes.cbc_decrypt_into fast ~iv:iv_buf ~iv_off buf off nblocks;
        let blocks = embed data off in
        for j = 0 to nblocks - 1 do
          let o = off + (16 * j) in
          Aes.decrypt_block fast blocks o blocks o
        done;
        Bytes.equal want (Bytes.sub buf off n)
        && guards_intact buf off n
        && Bytes.equal want_blocks (Bytes.sub blocks off n)
        && guards_intact blocks off n);
    QCheck.Test.make ~name:"cbc_encrypt_into = chained Aes_ct" ~count:20 oracle_case
      (fun (key, data, off, iv_off, iv_buf) ->
        let key = Bytes.of_string key and data = Bytes.of_string data in
        let iv_buf = Bytes.of_string iv_buf in
        let n = Bytes.length data in
        let want = ct_cbc_encrypt (Aes_ct.expand key) ~iv:(Bytes.sub iv_buf iv_off 16) data in
        let buf = embed data off in
        Aes.cbc_encrypt_into (Aes.expand key) ~iv:iv_buf ~iv_off buf off buf off (n / 16);
        Bytes.equal want (Bytes.sub buf off n) && guards_intact buf off n);
  ]

(* The decryption schedule, computed here from the forward schedule
   with InvMixColumns written out in [Gf256.mul] (no table): round [r]
   is forward round [nr - r], with InvMixColumns on rounds 1..nr-1. *)
let test_inverse_schedule () =
  let inv_mix w =
    let b i = (w lsr (24 - (8 * i))) land 0xff in
    let row c0 c1 c2 c3 =
      Gf256.mul c0 (b 0) lxor Gf256.mul c1 (b 1) lxor Gf256.mul c2 (b 2) lxor Gf256.mul c3 (b 3)
    in
    (row 14 11 13 9 lsl 24) lor (row 9 14 11 13 lsl 16) lor (row 13 9 14 11 lsl 8)
    lor row 11 13 9 14
  in
  let prng = Prng.create ~seed:0x1d in
  List.iter
    (fun klen ->
      for _ = 1 to 8 do
        let k = Aes_key.expand (Prng.bytes prng klen) in
        let nr = k.Aes_key.nr in
        Alcotest.(check int) "schedule length" (4 * (nr + 1)) (Array.length k.Aes_key.inv_words);
        for r = 0 to nr do
          for c = 0 to 3 do
            let fwd = k.Aes_key.words.((4 * (nr - r)) + c) in
            let want = if r = 0 || r = nr then fwd else inv_mix fwd in
            Alcotest.(check int)
              (Printf.sprintf "%d-bit key, round %d word %d" (8 * klen) r c)
              want
              k.Aes_key.inv_words.((4 * r) + c)
          done
        done
      done)
    [ 16; 24; 32 ]

(* --------------------- on-SoC bulk differential ------------------- *)

let boot () = Machine.create ~seed:33 (Machine.tegra3 ~dram_size:(4 * Units.mib) ())

let mk_aes m = Aes_on_soc.create m ~storage:Aes_on_soc.In_iram ~base:(Machine.iram_region m).Memmap.base ~key

(* [bulk_into] runs the fused CBC kernel: for either direction, at
   512 B and 4 KiB, and for every buffer layout it accepts (in place,
   in place at a non-zero offset, distinct buffers, one buffer at
   shifted offsets) it must write exactly [Mode]'s bytes, and charge
   the same simulated clock and energy as the allocating [bulk]. *)
let test_bulk_into_differential () =
  let c = cipher () in
  List.iter
    (fun (dir, n) ->
      let label layout =
        Printf.sprintf "%s %d B %s"
          (match dir with `Encrypt -> "encrypt" | `Decrypt -> "decrypt")
          n layout
      in
      let data = payload n in
      let expected =
        match dir with
        | `Encrypt -> Mode.cbc_encrypt c ~iv data
        | `Decrypt -> Mode.cbc_decrypt c ~iv data
      in
      let m_a = boot () in
      check_bytes (label "bulk") expected (Aes_on_soc.bulk (mk_aes m_a) ~dir ~iv data);
      List.iter
        (fun (layout, src_off, dst_off, same) ->
          let src = Bytes.make (n + 64) '\x5a' in
          Bytes.blit data 0 src src_off n;
          let dst = if same then src else Bytes.make (n + 64) '\x00' in
          let m_b = boot () in
          Aes_on_soc.bulk_into (mk_aes m_b) ~dir ~iv ~src ~src_off ~dst ~dst_off ~len:n;
          check_bytes (label layout) expected (Bytes.sub dst dst_off n);
          checkf (label layout ^ ": simulated clock") (Machine.now m_a) (Machine.now m_b);
          checkf (label layout ^ ": energy total")
            (Energy.total (Machine.energy m_a))
            (Energy.total (Machine.energy m_b)))
        [
          ("in place", 0, 0, true);
          ("in place at an offset", 32, 32, true);
          ("distinct buffers", 16, 48, false);
          ("one buffer, shifted", 48, 16, true);
          ("one buffer, shifted up", 16, 48, true);
        ])
    [ (`Encrypt, 512); (`Decrypt, 512); (`Encrypt, 4096); (`Decrypt, 4096) ]

let test_bulk_roundtrip () =
  let m = boot () in
  let a = mk_aes m in
  let data = payload 4096 in
  let ct = Aes_on_soc.bulk a ~dir:`Encrypt ~iv data in
  check_bytes "roundtrip" data (Aes_on_soc.bulk a ~dir:`Decrypt ~iv ct)

(* Re-keying must refresh the cached bulk cipher together with the
   on-SoC context: after [set_key] the bulk output matches a fresh
   instance created with the new key, not the old one. *)
let test_set_key_refreshes_cached_cipher () =
  let key2 = Bytes.of_string "another 16b key!" in
  let data = payload 256 in
  let m = boot () in
  let a = mk_aes m in
  let old_ct = Aes_on_soc.bulk a ~dir:`Encrypt ~iv data in
  Aes_on_soc.set_key a key2;
  let new_ct = Aes_on_soc.bulk a ~dir:`Encrypt ~iv data in
  let m2 = boot () in
  let fresh = Aes_on_soc.create m2 ~storage:Aes_on_soc.In_iram ~base:(Machine.iram_region m2).Memmap.base ~key:key2 in
  check_bytes "matches fresh instance under the new key" (Aes_on_soc.bulk fresh ~dir:`Encrypt ~iv data) new_ct;
  if Bytes.equal old_ct new_ct then Alcotest.fail "re-key did not change the bulk output";
  check_bytes "decrypts under the new key" data (Aes_on_soc.bulk a ~dir:`Decrypt ~iv new_ct)

(* Allocation regression for the cipher core: a warm in-place CBC
   transform over a reusable scratch must stay (near) allocation free.
   The ceiling is far below the old per-call closure cost (~115 words
   per block) and far above harmless noise. *)
let test_cbc_into_allocation_ceiling () =
  let c = cipher () in
  let scratch = Mode.make_scratch () in
  let buf = payload 4096 in
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096;
  let mw0 = Gc.minor_words () in
  for _ = 1 to 64 do
    Mode.cbc_encrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096
  done;
  let per_page = (Gc.minor_words () -. mw0) /. 64.0 in
  if per_page > 256.0 then
    Alcotest.failf "cbc_encrypt_into allocated %.1f minor words per page (ceiling 256)" per_page

(* The unlock path's page kernel: a warm in-place 4 KiB decrypt keeps
   its state in registers and its schedule in the key, so it allocates
   nothing at all. *)
let test_cbc_decrypt_allocation_ceiling () =
  let k = Aes.expand key in
  let buf = payload 4096 in
  Aes.cbc_decrypt_into k ~iv ~iv_off:0 buf 0 256;
  let mw0 = Gc.minor_words () in
  for _ = 1 to 64 do
    Aes.cbc_decrypt_into k ~iv ~iv_off:0 buf 0 256
  done;
  let words = Gc.minor_words () -. mw0 in
  if words > 0.0 then
    Alcotest.failf "Aes.cbc_decrypt_into allocated %.0f minor words over 64 pages (ceiling 0)" words

(* The charge around every page transform (the key schedule head read
   into registers, the IRQ bracket, the modeled clock and energy adds)
   allocates nothing either: 64 warm charged 4 KiB [bulk_fused_into]
   calls allocate 0 minor words, in either direction, with the context
   in iRAM or in DRAM behind the L2.  The input is fixed, so after the
   first call the host kernel is a memo hit. *)
let test_charged_page_allocation_ceiling () =
  List.iter
    (fun (where, storage, base_of) ->
      let m = boot () in
      let a = Aes_on_soc.create m ~storage ~base:(base_of m) ~key in
      let src = payload 4096 and dst = Bytes.create 4096 in
      List.iter
        (fun dir ->
          let page () =
            Aes_on_soc.bulk_fused_into a ~dir ~iv ~iv_off:0 ~src ~src_off:0 ~dst ~dst_off:0
              ~len:4096
          in
          page ();
          let mw0 = Gc.minor_words () in
          for _ = 1 to 64 do
            page ()
          done;
          let words = Gc.minor_words () -. mw0 in
          if words > 0.0 then
            Alcotest.failf "charged page (%s, %s): %.0f minor words over 64 pages (ceiling 0)" where
              (match dir with `Encrypt -> "encrypt" | `Decrypt -> "decrypt")
              words)
        [ `Encrypt; `Decrypt ])
    [
      ("iRAM", Aes_on_soc.In_iram, fun m -> (Machine.iram_region m).Memmap.base);
      ("locked L2", Aes_on_soc.In_locked_l2, fun m -> (Machine.dram_region m).Memmap.base);
    ]

(* ------------------------ page transform memo ---------------------- *)

(* [Aes_on_soc] reuses the host output of whole-page transforms it has
   just computed.  A random sequence of page transforms, both entry
   points and both directions, with inputs drawn from a small pool (and
   from the previous output) so that repeats hit, 2-3 IVs, in-place,
   disjoint and shifted views at random offsets, and re-keys in
   between: every output must be the bytes [Aes.cbc_*_into] computes on
   a copy under the current key. *)

let memo_keys = [| key; Bytes.of_string "another 16b key!"; Bytes.of_string "third sixteen b." |]
let memo_ivs = [| iv; Bytes.make 16 '\x00'; Bytes.init 16 (fun i -> Char.chr (0xf0 - i)) |]

let memo_pool =
  let prng = Prng.create ~seed:0x3e in
  Array.init 4 (fun _ -> Prng.bytes prng 4096)

type memo_op =
  | Rekey of int
  | Page of {
      fused : bool;  (** [bulk_fused_into] (IV inside a larger buffer), else [bulk_into] *)
      dir : [ `Encrypt | `Decrypt ];
      input : int;  (** index into [memo_pool], or -1 for the previous output *)
      iv_ix : int;
      layout : [ `In_place | `Disjoint | `Shifted ];
      src_off : int;
      dst_off : int;
    }

let memo_op_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun k -> Rekey k) (int_bound (Array.length memo_keys - 1)));
        ( 8,
          let* fused = bool in
          let* dir = oneofl [ `Encrypt; `Decrypt ] in
          let* input = int_range (-1) (Array.length memo_pool - 1) in
          let* iv_ix = int_bound (Array.length memo_ivs - 1) in
          let* layout = oneofl [ `In_place; `Disjoint; `Shifted ] in
          let* src_off = int_bound 48 in
          let* dst_off = int_bound 48 in
          return (Page { fused; dir; input; iv_ix; layout; src_off; dst_off }) );
      ])

let print_memo_op = function
  | Rekey k -> Printf.sprintf "rekey %d" k
  | Page { fused; dir; input; iv_ix; layout; src_off; dst_off } ->
      Printf.sprintf "%s %s input %d iv %d %s src_off %d dst_off %d"
        (if fused then "fused" else "bulk_into")
        (match dir with `Encrypt -> "encrypt" | `Decrypt -> "decrypt")
        input iv_ix
        (match layout with `In_place -> "in place" | `Disjoint -> "disjoint" | `Shifted -> "shifted")
        src_off dst_off

let memo_case =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_memo_op ops))
    QCheck.Gen.(list_size (int_range 1 40) memo_op_gen)

let reference_page ~key ~dir ~iv data =
  let k = Aes.expand key and out = Bytes.copy data in
  (match dir with
  | `Encrypt -> Aes.cbc_encrypt_into k ~iv ~iv_off:0 out 0 out 0 256
  | `Decrypt -> Aes.cbc_decrypt_into k ~iv ~iv_off:0 out 0 256);
  out

(* Run [ops] on one instance; the first wrong output fails the case. *)
let run_memo_ops ops =
  let m = boot () in
  let a = mk_aes m in
  let cur = ref key and last = ref memo_pool.(0) in
  List.for_all
    (function
      | Rekey k ->
          cur := memo_keys.(k);
          Aes_on_soc.set_key a !cur;
          true
      | Page { fused; dir; input; iv_ix; layout; src_off; dst_off } ->
          let data = if input < 0 then !last else memo_pool.(input) in
          let iv = memo_ivs.(iv_ix) in
          let want = reference_page ~key:!cur ~dir ~iv data in
          let src = Bytes.make (4096 + 64) '\xa5' in
          Bytes.blit data 0 src src_off 4096;
          let dst, dst_off =
            match layout with
            | `In_place -> (src, src_off)
            | `Disjoint -> (Bytes.make (4096 + 64) '\xa5', dst_off)
            | `Shifted -> (src, dst_off)
          in
          (if fused then begin
             let iv_buf = Bytes.make 48 '\x11' in
             Bytes.blit iv 0 iv_buf (dst_off land 31) 16;
             Aes_on_soc.bulk_fused_into a ~dir ~iv:iv_buf ~iv_off:(dst_off land 31) ~src ~src_off
               ~dst ~dst_off ~len:4096
           end
           else Aes_on_soc.bulk_into a ~dir ~iv ~src ~src_off ~dst ~dst_off ~len:4096);
          let got = Bytes.sub dst dst_off 4096 in
          last := got;
          Bytes.equal want got
          && (layout <> `Disjoint || guards_intact dst dst_off 4096))
    ops

let qcheck_memo =
  [ QCheck.Test.make ~name:"memoised page transforms = Aes.cbc_*_into" ~count:150 memo_case run_memo_ops ]

(* A hit must charge exactly what a miss does: the memo skips host
   compute only.  The memo is domain-local, so the same second call
   run on a fresh domain misses; both machines must end with the same
   bytes, simulated clock and energy. *)
let test_memo_hit_charges_as_miss () =
  let data = payload 4096 in
  let twice ~second =
    let m = boot () in
    let a = mk_aes m in
    let dst = Bytes.create 4096 in
    let call () =
      Aes_on_soc.bulk_into a ~dir:`Encrypt ~iv ~src:data ~src_off:0 ~dst ~dst_off:0 ~len:4096
    in
    call ();
    second call;
    (dst, Machine.now m, Energy.total (Machine.energy m))
  in
  let hit_dst, hit_clock, hit_energy = twice ~second:(fun call -> call ()) in
  let miss_dst, miss_clock, miss_energy =
    twice ~second:(fun call -> Domain.join (Domain.spawn call))
  in
  check_bytes "same ciphertext" miss_dst hit_dst;
  checkf "same simulated clock" miss_clock hit_clock;
  checkf "same energy" miss_energy hit_energy

(* The memo's lookup, hit copy and miss refill allocate nothing once a
   domain's slots exist: 64 warm page transforms through the uncharged
   entry point (the charge's IRQ bracket is measured elsewhere), all
   hits (a fixed input into another buffer) or all misses (in place,
   so every input is new), allocate 0 minor words in either
   direction. *)
let test_memo_allocation_ceiling () =
  let m = boot () in
  let a = mk_aes m in
  let src = payload 4096 and dst = Bytes.create 4096 and buf = payload 4096 in
  List.iter
    (fun dir ->
      let name = match dir with `Encrypt -> "encrypt" | `Decrypt -> "decrypt" in
      List.iter
        (fun (runs, src, dst) ->
          let page () =
            Aes_on_soc.bulk_fused_raw a ~dir ~iv ~iv_off:0 ~src ~src_off:0 ~dst ~dst_off:0
              ~len:4096
          in
          page ();
          let mw0 = Gc.minor_words () in
          for _ = 1 to 64 do
            page ()
          done;
          let words = Gc.minor_words () -. mw0 in
          if words > 0.0 then
            Alcotest.failf "%s %s: %.0f minor words over 64 pages (ceiling 0)" name runs words)
        [ ("all hits", src, dst); ("all misses", buf, buf) ])
    [ `Encrypt; `Decrypt ]

let () =
  Alcotest.run "sentry_crypto_fastpath"
    [
      ( "modes",
        [
          Alcotest.test_case "cbc into = allocating" `Quick test_cbc_into_matches_allocating;
          Alcotest.test_case "cbc in place" `Quick test_cbc_into_in_place;
          Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse_is_stateless;
          Alcotest.test_case "bad iv rejected" `Quick test_cbc_into_rejects_bad_iv;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "bulk_into differential" `Quick test_bulk_into_differential;
          Alcotest.test_case "bulk roundtrip" `Quick test_bulk_roundtrip;
          Alcotest.test_case "set_key refreshes cipher" `Quick test_set_key_refreshes_cached_cipher;
        ] );
      ( "oracle",
        Alcotest.test_case "inverse schedule" `Quick test_inverse_schedule
        :: List.map QCheck_alcotest.to_alcotest qcheck_oracle );
      ( "allocation",
        [
          Alcotest.test_case "cbc into ceiling" `Quick test_cbc_into_allocation_ceiling;
          Alcotest.test_case "cbc decrypt page ceiling" `Quick test_cbc_decrypt_allocation_ceiling;
          Alcotest.test_case "charged page ceiling" `Quick test_charged_page_allocation_ceiling;
          Alcotest.test_case "page memo ceiling" `Quick test_memo_allocation_ceiling;
        ] );
      ( "page memo",
        Alcotest.test_case "hit charges as miss" `Quick test_memo_hit_charges_as_miss
        :: List.map QCheck_alcotest.to_alcotest qcheck_memo );
    ]
