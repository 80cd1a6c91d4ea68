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

let test_ecb_into_matches_allocating () =
  let c = cipher () in
  let data = payload 128 in
  let expected = Mode.ecb_encrypt c data in
  let buf = Bytes.copy data in
  Mode.ecb_encrypt_into c ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:128;
  check_bytes "ecb encrypt in place" expected buf;
  Mode.ecb_decrypt_into c ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:128;
  check_bytes "ecb decrypt in place" data buf

let test_xts_into_matches_allocating () =
  let k = Xts.expand (Bytes.of_string "0123456789abcdefFEDCBA9876543210") in
  let tweak = Xts.tweak_of_sector 42 in
  let data = payload 512 in
  let expected = Xts.encrypt k ~tweak data in
  let buf = Bytes.copy data in
  Xts.transform_into k ~dir:`Encrypt ~tweak ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:512;
  check_bytes "xts encrypt in place" expected buf;
  Xts.transform_into k ~dir:`Decrypt ~tweak ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:512;
  check_bytes "xts decrypt in place" data buf

let test_cbc_into_rejects_bad_iv () =
  let c = cipher () in
  let buf = payload 32 in
  Alcotest.check_raises "short iv" (Invalid_argument "Mode.cbc_encrypt_into: bad IV") (fun () ->
      Mode.cbc_encrypt_into c ~iv:(Bytes.create 8) ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:32)

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

let () =
  Alcotest.run "sentry_crypto_fastpath"
    [
      ( "modes",
        [
          Alcotest.test_case "cbc into = allocating" `Quick test_cbc_into_matches_allocating;
          Alcotest.test_case "cbc in place" `Quick test_cbc_into_in_place;
          Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse_is_stateless;
          Alcotest.test_case "ecb into = allocating" `Quick test_ecb_into_matches_allocating;
          Alcotest.test_case "xts into = allocating" `Quick test_xts_into_matches_allocating;
          Alcotest.test_case "bad iv rejected" `Quick test_cbc_into_rejects_bad_iv;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "bulk_into differential" `Quick test_bulk_into_differential;
          Alcotest.test_case "bulk roundtrip" `Quick test_bulk_roundtrip;
          Alcotest.test_case "set_key refreshes cipher" `Quick test_set_key_refreshes_cached_cipher;
        ] );
      ( "allocation",
        [ Alcotest.test_case "cbc into ceiling" `Quick test_cbc_into_allocation_ceiling ] );
    ]
