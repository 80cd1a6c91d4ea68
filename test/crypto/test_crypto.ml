open Sentry_util
open Sentry_soc
open Sentry_crypto

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_bytes = Alcotest.(check bytes)
let hex = Hex.decode

(* ------------------------------ GF(2^8) --------------------------- *)

let test_gf256_xtime () =
  checki "2*1" 2 (Gf256.xtime 1);
  checki "2*0x80 reduces" 0x1b (Gf256.xtime 0x80);
  checki "2*0xff" 0xe5 (Gf256.xtime 0xff)

let test_gf256_mul_known () =
  (* FIPS-197 §4.2: {57} . {83} = {c1} *)
  checki "57*83" 0xc1 (Gf256.mul 0x57 0x83);
  checki "57*13" 0xfe (Gf256.mul 0x57 0x13);
  checki "identity" 0x57 (Gf256.mul 0x57 1);
  checki "zero" 0 (Gf256.mul 0x57 0)

let test_gf256_inverse () =
  checki "inv 0 = 0" 0 (Gf256.inv 0);
  for a = 1 to 255 do
    checki "a * inv a = 1" 1 (Gf256.mul a (Gf256.inv a))
  done

let test_gf256_commutative () =
  for _ = 1 to 100 do
    let p = Prng.create ~seed:77 in
    let a = Prng.byte p and b = Prng.byte p in
    checki "commutes" (Gf256.mul a b) (Gf256.mul b a)
  done

(* ------------------------------ Tables ---------------------------- *)

let test_sbox_known_values () =
  (* FIPS-197 Figure 7 spot checks *)
  checki "S(0x00)" 0x63 Aes_tables.sbox.(0x00);
  checki "S(0x53)" 0xed Aes_tables.sbox.(0x53);
  checki "S(0xff)" 0x16 Aes_tables.sbox.(0xff)

let test_sbox_bijective () =
  let seen = Array.make 256 false in
  Array.iter (fun s -> seen.(s) <- true) Aes_tables.sbox;
  checkb "bijection" true (Array.for_all Fun.id seen)

let test_inv_sbox_inverse () =
  for x = 0 to 255 do
    checki "inv_sbox . sbox = id" x Aes_tables.inv_sbox.(Aes_tables.sbox.(x))
  done

let test_rcon_values () =
  Alcotest.(check (array int)) "rcon"
    [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]
    Aes_tables.rcon

let test_te_structure () =
  for x = 0 to 255 do
    let b0, b1, b2, b3 = Aes_tables.te_entry x in
    let s = Aes_tables.sbox.(x) in
    checki "2s" (Gf256.mul 2 s) b0;
    checki "s" s b1;
    checki "s" s b2;
    checki "3s" (Gf256.mul 3 s) b3
  done

let test_serialized_tables_consistent () =
  checki "te bytes" 1024 (Bytes.length Aes_tables.te_bytes);
  for x = 0 to 255 do
    let b0, _, _, b3 = Aes_tables.te_entry x in
    checki "first byte" b0 (Char.code (Bytes.get Aes_tables.te_bytes (4 * x)));
    checki "last byte" b3 (Char.code (Bytes.get Aes_tables.te_bytes ((4 * x) + 3)))
  done

(* ---------------------------- Key schedule ------------------------ *)

let test_key_expansion_fips_a1 () =
  (* FIPS-197 A.1: last round key of the example 128-bit expansion *)
  let k = Aes_key.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  checki "rounds" 10 k.Aes_key.nr;
  let last = Aes_key.round_key k 10 in
  check_bytes "w40..w43" (hex "d014f9a8c9ee2589e13f0cc8b6630ca6") last

let test_key_expansion_sizes () =
  List.iter
    (fun (len, nr, total) ->
      let k = Aes_key.expand (Bytes.make len 'k') in
      checki "nr" nr k.Aes_key.nr;
      checki "schedule bytes" total (Aes_key.schedule_bytes k))
    [ (16, 10, 176); (24, 12, 208); (32, 14, 240) ]

let test_key_expansion_bad_length () =
  Alcotest.check_raises "bad" (Invalid_argument "Aes_key: bad key length 15") (fun () ->
      ignore (Aes_key.expand (Bytes.make 15 'k')))

let test_schedule_recognizer_accepts_real () =
  let p = Prng.create ~seed:5 in
  for _ = 1 to 20 do
    let key = Prng.bytes p 16 in
    let sched = Aes_key.serialize (Aes_key.expand key) in
    let buf = Bytes.cat (Prng.bytes p 64) (Bytes.cat sched (Prng.bytes p 64)) in
    checkb "valid at 64" true (Aes_key.is_valid_128_schedule buf 64);
    check_bytes "key recovered" key (Aes_key.key_of_128_schedule buf 64)
  done

let test_schedule_recognizer_rejects_noise () =
  let p = Prng.create ~seed:6 in
  let buf = Prng.bytes p 4096 in
  let hits = ref 0 in
  for off = 0 to 4096 - 176 do
    if Aes_key.is_valid_128_schedule buf off then incr hits
  done;
  checki "no false positives" 0 !hits

let test_schedule_recognizer_rejects_corrupted () =
  let key = Bytes.make 16 'q' in
  let sched = Aes_key.serialize (Aes_key.expand key) in
  Bytes.set sched 100 (Char.chr (Char.code (Bytes.get sched 100) lxor 1));
  checkb "one flipped bit rejected" false (Aes_key.is_valid_128_schedule sched 0)

(* ------------------------------- AES ------------------------------ *)

let fips_cases =
  [
    (* key, plaintext, ciphertext *)
    ( "2b7e151628aed2a6abf7158809cf4f3c",
      "3243f6a8885a308d313198a2e0370734",
      "3925841d02dc09fbdc118597196a0b32" );
    ( "000102030405060708090a0b0c0d0e0f",
      "00112233445566778899aabbccddeeff",
      "69c4e0d86a7b0430d8cdb78070b4c55a" );
    ( "000102030405060708090a0b0c0d0e0f1011121314151617",
      "00112233445566778899aabbccddeeff",
      "dda97ca4864cdfe06eaf70a0ec0d7191" );
    ( "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
      "00112233445566778899aabbccddeeff",
      "8ea2b7ca516745bfeafc49904b496089" );
  ]

let test_aes_fips_vectors () =
  List.iter
    (fun (k, pt, ct) ->
      let key = Aes.expand (hex k) in
      check_bytes ("encrypt " ^ ct) (hex ct) (Aes.encrypt_block_copy key (hex pt));
      check_bytes ("decrypt " ^ pt) (hex pt) (Aes.decrypt_block_copy key (hex ct)))
    fips_cases

let test_aes_in_place () =
  let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let buf = hex "3243f6a8885a308d313198a2e0370734" in
  Aes.encrypt_block key buf 0 buf 0;
  check_bytes "in place" (hex "3925841d02dc09fbdc118597196a0b32") buf

let test_aes_at_offset () =
  let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let src = Bytes.cat (Bytes.make 3 'x') (hex "3243f6a8885a308d313198a2e0370734") in
  let dst = Bytes.make 24 '\000' in
  Aes.encrypt_block key src 3 dst 5;
  check_bytes "offset" (hex "3925841d02dc09fbdc118597196a0b32") (Bytes.sub dst 5 16)

(* ------------------------------ Modes ----------------------------- *)

(* NIST SP 800-38A F.2.1 CBC-AES128.Encrypt *)
let sp800_key = "2b7e151628aed2a6abf7158809cf4f3c"
let sp800_iv = "000102030405060708090a0b0c0d0e0f"

let sp800_pt =
  "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"

let sp800_cbc_ct =
  "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b273bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"

let test_cbc_nist_vector () =
  let c = Mode.of_key (Aes.expand (hex sp800_key)) in
  check_bytes "cbc encrypt" (hex sp800_cbc_ct)
    (Mode.cbc_encrypt c ~iv:(hex sp800_iv) (hex sp800_pt));
  check_bytes "cbc decrypt" (hex sp800_pt)
    (Mode.cbc_decrypt c ~iv:(hex sp800_iv) (hex sp800_cbc_ct))

(* NIST SP 800-38A F.1.1 ECB-AES128: the four plaintext blocks of the
   CBC vector above, each through the bare block cipher. *)
let test_sp800_blocks () =
  let key = Aes.expand (hex sp800_key) in
  let ct =
    hex
      "3ad77bb40d7a3660a89ecaf32466ef97f5d3d58503b9699de785895a96fdbaaf43b1cd7f598ece23881b00e3ed0306887b0c785e27e8ad3f8223207104725dd4"
  in
  let pt = hex sp800_pt in
  let out = Bytes.create 64 in
  for j = 0 to 3 do
    Aes.encrypt_block key pt (16 * j) out (16 * j)
  done;
  check_bytes "encrypt" ct out;
  for j = 0 to 3 do
    Aes.decrypt_block key ct (16 * j) out (16 * j)
  done;
  check_bytes "decrypt" pt out

let test_cbc_rejects_misaligned () =
  let c = Mode.of_key (Aes.expand (hex sp800_key)) in
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Mode.cbc_encrypt: data not a multiple of the block size") (fun () ->
      ignore (Mode.cbc_encrypt c ~iv:(hex sp800_iv) (Bytes.make 17 'x')))

let test_cbc_bad_iv () =
  let c = Mode.of_key (Aes.expand (hex sp800_key)) in
  Alcotest.check_raises "iv" (Invalid_argument "Mode.cbc_encrypt: bad IV") (fun () ->
      ignore (Mode.cbc_encrypt c ~iv:(Bytes.make 8 'i') (Bytes.make 16 'x')))

(* ----------------------------- SHA-256 ---------------------------- *)

let test_sha256_vectors () =
  List.iter
    (fun (msg, want) -> check_bytes msg (hex want) (Sha256.digest_string msg))
    [
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]

let test_sha256_long_input () =
  (* million 'a' standard vector *)
  let msg = Bytes.make 1_000_000 'a' in
  check_bytes "million a"
    (hex "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    (Sha256.digest msg)

let test_sha256_padding_boundaries () =
  (* lengths around the 55/56/64 padding boundaries must not crash and
     must be distinct *)
  let digests =
    List.map (fun n -> Sha256.digest (Bytes.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65 ]
  in
  let distinct = List.sort_uniq compare (List.map Bytes.to_string digests) in
  checki "all distinct" (List.length digests) (List.length distinct)

(* ------------------------------ ESSIV ----------------------------- *)

let test_essiv_deterministic_distinct () =
  let e = Essiv.create ~key:(Bytes.make 16 'k') in
  check_bytes "deterministic" (Essiv.iv e ~sector:42) (Essiv.iv e ~sector:42);
  checkb "distinct sectors" false (Bytes.equal (Essiv.iv e ~sector:1) (Essiv.iv e ~sector:2))

let test_essiv_key_dependent () =
  let e1 = Essiv.create ~key:(Bytes.make 16 'a') in
  let e2 = Essiv.create ~key:(Bytes.make 16 'b') in
  checkb "key dependent" false (Bytes.equal (Essiv.iv e1 ~sector:7) (Essiv.iv e2 ~sector:7))

(* ---------------------------- Aes_state --------------------------- *)

let test_state_sizes_table4 () =
  let check_size size secret public ap total =
    let s, p, a = Aes_state.by_sensitivity size in
    checki "secret" secret s;
    checki "public" public p;
    checki "access-protected" ap a;
    checki "total" total (Aes_state.total_size size)
  in
  check_size Aes_key.Aes_128 208 18 2600 2826;
  check_size Aes_key.Aes_192 248 18 2600 2866;
  check_size Aes_key.Aes_256 288 18 2600 2906

let test_state_layout_no_overlap () =
  List.iter
    (fun size ->
      let fields = Aes_state.layout size in
      let rec pairs = function
        | [] -> ()
        | (f : Aes_state.field) :: rest ->
            List.iter
              (fun (g : Aes_state.field) ->
                checkb "disjoint" true
                  (f.Aes_state.offset + f.Aes_state.size <= g.Aes_state.offset
                  || g.Aes_state.offset + g.Aes_state.size <= f.Aes_state.offset))
              rest;
            pairs rest
      in
      pairs fields)
    [ Aes_key.Aes_128; Aes_key.Aes_192; Aes_key.Aes_256 ]

let test_state_fields_word_aligned () =
  List.iter
    (fun (f : Aes_state.field) -> checki (f.Aes_state.name ^ " aligned") 0 (f.Aes_state.offset mod 4))
    (Aes_state.layout Aes_key.Aes_128)

let test_state_fits_one_page () =
  List.iter
    (fun size -> checkb "fits page" true (Aes_state.context_bytes size <= 4096))
    [ Aes_key.Aes_128; Aes_key.Aes_192; Aes_key.Aes_256 ]

let test_round_tables_dominate () =
  (* the paper's observation: access-protected state is an order of
     magnitude larger than everything else combined *)
  let s, p, a = Aes_state.by_sensitivity Aes_key.Aes_128 in
  checkb "dominates" true (a > 10 * (s + p - 18))

(* ---------------------------- Aes_block --------------------------- *)

let native_block key =
  let buf = Bytes.make 4096 '\000' in
  Aes_block.init (Accessor.native buf) ~key

let test_instrumented_equals_fast () =
  let p = Prng.create ~seed:21 in
  List.iter
    (fun klen ->
      let key = Prng.bytes p klen in
      let fast = Aes.expand key in
      let blk = native_block key in
      for _ = 1 to 20 do
        let pt = Prng.bytes p 16 in
        let c1 = Aes.encrypt_block_copy fast pt in
        let c2 = Bytes.create 16 in
        Aes_block.encrypt_block blk pt 0 c2 0;
        check_bytes "enc equal" c1 c2;
        let d = Bytes.create 16 in
        Aes_block.decrypt_block blk c1 0 d 0;
        check_bytes "dec roundtrip" pt d
      done)
    [ 16; 24; 32 ]

let test_instrumented_cbc_matches_mode () =
  let p = Prng.create ~seed:22 in
  let key = Prng.bytes p 16 in
  let blk = native_block key in
  let iv = Prng.bytes p 16 in
  let data = Prng.bytes p 128 in
  let want = Mode.cbc_encrypt (Mode.of_key (Aes.expand key)) ~iv data in
  check_bytes "cbc" want (Mode.cbc_encrypt (Aes_block.cipher blk) ~iv data)

let test_instrumented_wipe () =
  let buf = Bytes.make 4096 '\000' in
  let blk = Aes_block.init (Accessor.native buf) ~key:(Bytes.make 16 'k') in
  Aes_block.wipe blk;
  (* every secret / access-protected byte is 0xff *)
  List.iter
    (fun (f : Aes_state.field) ->
      match f.Aes_state.sensitivity with
      | Aes_state.Secret | Aes_state.Access_protected ->
          for i = f.Aes_state.offset to f.Aes_state.offset + f.Aes_state.size - 1 do
            checki "wiped" 0xff (Char.code (Bytes.get buf i))
          done
      | Aes_state.Public -> ())
    (Aes_state.layout Aes_key.Aes_128)

let test_round1_lookup_order_is_permutation () =
  let a = Array.copy Aes_block.round1_lookup_order in
  Array.sort compare a;
  Alcotest.(check (array int)) "permutation" (Array.init 16 Fun.id) a

(* --------------------- machine-backed ciphers --------------------- *)

let boot_machine () = Machine.create ~seed:33 (Machine.tegra3 ~dram_size:(4 * Units.mib) ())

let test_machine_backed_cipher_correct () =
  let m = boot_machine () in
  let base = (Machine.dram_region m).Memmap.base + 0x10000 in
  let blk = Aes_block.init (Accessor.machine m ~base) ~key:(hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Bytes.create 16 in
  Aes_block.encrypt_block blk (hex "3243f6a8885a308d313198a2e0370734") 0 ct 0;
  check_bytes "fips through simulated memory" (hex "3925841d02dc09fbdc118597196a0b32") ct

let test_generic_aes_schedule_lands_in_dram () =
  let m = boot_machine () in
  let base = (Machine.dram_region m).Memmap.base + 0x20000 in
  let g = Generic_aes.create m ~ctx_base:base ~variant:Perf.Openssl_user in
  let key = Bytes.of_string "sixteen byte key" in
  Generic_aes.set_key g key;
  Pl310.flush_masked (Machine.l2 m);
  let sched = Aes_key.serialize (Aes_key.expand key) in
  checkb "schedule in DRAM" true (Bytes_util.contains (Dram.raw (Machine.dram m)) sched)

let test_generic_aes_requires_dram () =
  let m = boot_machine () in
  Alcotest.check_raises "iram rejected"
    (Invalid_argument "Generic_aes.create: context must be in DRAM") (fun () ->
      ignore
        (Generic_aes.create m ~ctx_base:(Machine.iram_region m).Memmap.base
           ~variant:Perf.Openssl_user))

let test_generic_bulk_matches_instrumented () =
  let m = boot_machine () in
  let base = (Machine.dram_region m).Memmap.base + 0x30000 in
  let g = Generic_aes.create m ~ctx_base:base ~variant:Perf.Openssl_user in
  Generic_aes.set_key g (Bytes.make 16 'k');
  let iv = Bytes.make 16 'i' in
  let data = Bytes.make 64 'd' in
  check_bytes "bulk = instrumented"
    (Generic_aes.encrypt_instrumented g ~iv data)
    (Generic_aes.bulk g ~dir:`Encrypt ~iv data)

(* ---------------------------- Crypto API -------------------------- *)

let dummy_impl name priority =
  {
    Crypto_api.name;
    algorithm = "cbc(aes)";
    priority;
    set_key = (fun _ -> ());
    encrypt = (fun ~iv:_ d -> d);
    decrypt = (fun ~iv:_ d -> d);
  }

let test_crypto_api_priority () =
  let api = Crypto_api.create () in
  Crypto_api.register api (dummy_impl "lo" 100);
  Crypto_api.register api (dummy_impl "hi" 500);
  Crypto_api.register api (dummy_impl "mid" 300);
  checkb "highest wins" true ((Crypto_api.find api ~algorithm:"cbc(aes)").Crypto_api.name = "hi");
  let without_hi = Crypto_api.create () in
  Crypto_api.register without_hi (dummy_impl "lo" 100);
  Crypto_api.register without_hi (dummy_impl "mid" 300);
  checkb "next highest" true
    ((Crypto_api.find without_hi ~algorithm:"cbc(aes)").Crypto_api.name = "mid")

let test_crypto_api_not_found () =
  let api = Crypto_api.create () in
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Crypto_api.find api ~algorithm:"gcm(aes)"))

let test_crypto_api_list_sorted () =
  let api = Crypto_api.create () in
  Crypto_api.register api (dummy_impl "a" 1);
  Crypto_api.register api (dummy_impl "b" 9);
  match Crypto_api.list api with
  | [ first; second ] ->
      checkb "sorted" true
        (first.Crypto_api.name = "b" && second.Crypto_api.name = "a")
  | _ -> Alcotest.fail "length"

(* ----------------------------- Hw_accel --------------------------- *)

let test_hw_accel_size_sensitivity () =
  let m = Machine.create ~seed:44 (Machine.nexus4 ~dram_size:(2 * Units.mib) ()) in
  let hw = Hw_accel.create m in
  let small = Hw_accel.throughput_mb_s hw ~bytes:4096 in
  let large = Hw_accel.throughput_mb_s hw ~bytes:Units.mib in
  checkb "bulk much faster" true (large > 2.0 *. small);
  Alcotest.(check (float 1.0)) "4k calibration" Calib.aes_nexus_hw_awake_mb_s small

let test_hw_accel_downscaling () =
  let m = Machine.create ~seed:44 (Machine.nexus4 ~dram_size:(2 * Units.mib) ()) in
  let hw = Hw_accel.create m in
  let awake = Hw_accel.throughput_mb_s hw ~bytes:4096 in
  Hw_accel.set_awake hw false;
  let asleep = Hw_accel.throughput_mb_s hw ~bytes:4096 in
  Alcotest.(check (float 0.01)) "4x down" (awake /. 4.0) asleep

let test_hw_accel_transform_correct () =
  let m = Machine.create ~seed:44 (Machine.nexus4 ~dram_size:(2 * Units.mib) ()) in
  let hw = Hw_accel.create m in
  let key = Bytes.make 16 'k' and iv = Bytes.make 16 'i' in
  Hw_accel.set_key hw key;
  let data = Bytes.make 64 'd' in
  let want = Mode.cbc_encrypt (Mode.of_key (Aes.expand key)) ~iv data in
  check_bytes "matches software" want (Hw_accel.encrypt hw ~iv data);
  check_bytes "decrypt" data (Hw_accel.decrypt hw ~iv want)

let test_hw_accel_unavailable_on_tegra () =
  let m = boot_machine () in
  Alcotest.check_raises "tegra"
    (Invalid_argument "Hw_accel.create: platform has no crypto accelerator") (fun () ->
      ignore (Hw_accel.create m))

(* ------------------------------ Perf ------------------------------ *)

let test_perf_onsoc_overhead_under_1pct () =
  let generic = Perf.throughput_mb_s ~platform:`Tegra3 Perf.Openssl_user in
  let locked = Perf.throughput_mb_s ~platform:`Tegra3 Perf.Onsoc_locked_l2 in
  let iram = Perf.throughput_mb_s ~platform:`Tegra3 Perf.Onsoc_iram in
  checkb "locked <1%" true ((generic -. locked) /. generic < 0.01);
  checkb "iram <1%" true ((generic -. iram) /. generic < 0.01)

let test_perf_charge_advances_clock () =
  let m = boot_machine () in
  let t0 = Machine.now m in
  Perf.charge m Perf.Openssl_user ~bytes:Units.mib;
  let dt = Machine.now m -. t0 in
  let want = 1.0 /. Calib.aes_tegra_generic_mb_s *. Units.s in
  Alcotest.(check (float (want /. 100.0))) "modeled time" want dt

let test_perf_invalid_combos () =
  Alcotest.check_raises "locked l2 on nexus"
    (Invalid_argument "Perf: locked-L2 AES unavailable on nexus4") (fun () ->
      ignore (Perf.throughput_mb_s ~platform:`Nexus4 Perf.Onsoc_locked_l2));
  Alcotest.check_raises "hw on tegra"
    (Invalid_argument "Perf: no crypto accelerator on tegra3") (fun () ->
      ignore (Perf.throughput_mb_s ~platform:`Tegra3 (Perf.Hw_accelerated `Awake)))

(* ---------------------------- Key_derive -------------------------- *)

let test_key_derive_volatile_fresh () =
  let m1 = boot_machine () in
  let m2 = Machine.create ~seed:99 (Machine.tegra3 ~dram_size:(2 * Units.mib) ()) in
  let k1 = Key_derive.volatile_key m1 and k2 = Key_derive.volatile_key m2 in
  checki "length" Key_derive.key_len (Bytes.length k1);
  checkb "differs across boots" false (Bytes.equal k1 k2)

let test_key_derive_persistent_stable () =
  let m = boot_machine () in
  let k1 = Key_derive.persistent_key m ~password:"hunter2" in
  let k2 = Key_derive.persistent_key m ~password:"hunter2" in
  check_bytes "stable" k1 k2;
  let k3 = Key_derive.persistent_key m ~password:"hunter3" in
  checkb "password-sensitive" false (Bytes.equal k1 k3)

let test_key_derive_device_bound () =
  let m1 = boot_machine () in
  let m2 = Machine.create ~seed:98 (Machine.tegra3 ~dram_size:(2 * Units.mib) ()) in
  let k1 = Key_derive.persistent_key m1 ~password:"pw" in
  let k2 = Key_derive.persistent_key m2 ~password:"pw" in
  checkb "fuse-bound" false (Bytes.equal k1 k2)

(* --------------------------- properties --------------------------- *)

let qcheck_tests =
  let open QCheck in
  let keygen = string_of_size (Gen.oneofl [ 16; 24; 32 ]) in
  [
    Test.make ~name:"AES decrypt . encrypt = id (all key sizes)" ~count:300
      (pair keygen (string_of_size (Gen.return 16)))
      (fun (k, pt) ->
        let key = Aes.expand (Bytes.of_string k) in
        let pt = Bytes.of_string pt in
        Bytes.equal (Aes.decrypt_block_copy key (Aes.encrypt_block_copy key pt)) pt);
    Test.make ~name:"CBC roundtrip at any block count" ~count:100
      (pair (string_of_size (Gen.return 16)) (int_range 0 8))
      (fun (k, nblocks) ->
        let c = Mode.of_key (Aes.expand (Bytes.of_string k)) in
        let iv = Bytes.make 16 '\x42' in
        let data = Bytes.init (16 * nblocks) (fun i -> Char.chr (i land 0xff)) in
        Bytes.equal (Mode.cbc_decrypt c ~iv (Mode.cbc_encrypt c ~iv data)) data);
    Test.make ~name:"encryption changes the data" ~count:100 (string_of_size (Gen.return 16))
      (fun pt ->
        let key = Aes.expand (Bytes.make 16 'Z') in
        not (Bytes.equal (Aes.encrypt_block_copy key (Bytes.of_string pt)) (Bytes.of_string pt)));
    Test.make ~name:"instrumented cipher equals fast cipher" ~count:50
      (pair keygen (string_of_size (Gen.return 16)))
      (fun (k, pt) ->
        let key = Bytes.of_string k and pt = Bytes.of_string pt in
        let blk = native_block key in
        let out = Bytes.create 16 in
        Aes_block.encrypt_block blk pt 0 out 0;
        Bytes.equal out (Aes.encrypt_block_copy (Aes.expand key) pt));
    Test.make ~name:"sha256 avalanche: one flipped bit changes the digest" ~count:100
      (pair (string_of_size Gen.(1 -- 64)) (int_range 0 7))
      (fun (s, bit) ->
        let b = Bytes.of_string s in
        let d1 = Sha256.digest b in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl bit)));
        not (Bytes.equal d1 (Sha256.digest b)));
    Test.make ~name:"key schedule recognizer: valid iff untampered" ~count:50
      (pair (string_of_size (Gen.return 16)) (int_range 0 175))
      (fun (k, pos) ->
        let sched = Aes_key.serialize (Aes_key.expand (Bytes.of_string k)) in
        let ok = Aes_key.is_valid_128_schedule sched 0 in
        Bytes.set sched pos (Char.chr (Char.code (Bytes.get sched pos) lxor 0x80));
        ok && not (Aes_key.is_valid_128_schedule sched 0));
  ]

let () =
  Alcotest.run "sentry_crypto"
    [
      ( "gf256",
        [
          Alcotest.test_case "xtime" `Quick test_gf256_xtime;
          Alcotest.test_case "mul known" `Quick test_gf256_mul_known;
          Alcotest.test_case "inverse" `Quick test_gf256_inverse;
          Alcotest.test_case "commutative" `Quick test_gf256_commutative;
        ] );
      ( "tables",
        [
          Alcotest.test_case "sbox values" `Quick test_sbox_known_values;
          Alcotest.test_case "sbox bijective" `Quick test_sbox_bijective;
          Alcotest.test_case "inv sbox" `Quick test_inv_sbox_inverse;
          Alcotest.test_case "rcon" `Quick test_rcon_values;
          Alcotest.test_case "te structure" `Quick test_te_structure;
          Alcotest.test_case "serialized consistent" `Quick test_serialized_tables_consistent;
        ] );
      ( "key-schedule",
        [
          Alcotest.test_case "fips a.1" `Quick test_key_expansion_fips_a1;
          Alcotest.test_case "sizes" `Quick test_key_expansion_sizes;
          Alcotest.test_case "bad length" `Quick test_key_expansion_bad_length;
          Alcotest.test_case "recognizer accepts" `Quick test_schedule_recognizer_accepts_real;
          Alcotest.test_case "recognizer rejects noise" `Quick test_schedule_recognizer_rejects_noise;
          Alcotest.test_case "recognizer rejects corrupt" `Quick
            test_schedule_recognizer_rejects_corrupted;
        ] );
      ( "aes",
        [
          Alcotest.test_case "fips vectors" `Quick test_aes_fips_vectors;
          Alcotest.test_case "in place" `Quick test_aes_in_place;
          Alcotest.test_case "at offset" `Quick test_aes_at_offset;
          Alcotest.test_case "sp800-38a blocks" `Quick test_sp800_blocks;
        ] );
      ( "modes",
        [
          Alcotest.test_case "cbc nist" `Quick test_cbc_nist_vector;
          Alcotest.test_case "misaligned" `Quick test_cbc_rejects_misaligned;
          Alcotest.test_case "bad iv" `Quick test_cbc_bad_iv;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_long_input;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_padding_boundaries;
        ] );
      ( "essiv",
        [
          Alcotest.test_case "deterministic distinct" `Quick test_essiv_deterministic_distinct;
          Alcotest.test_case "key dependent" `Quick test_essiv_key_dependent;
        ] );
      ( "aes-state",
        [
          Alcotest.test_case "table 4 sizes" `Quick test_state_sizes_table4;
          Alcotest.test_case "no overlap" `Quick test_state_layout_no_overlap;
          Alcotest.test_case "word aligned" `Quick test_state_fields_word_aligned;
          Alcotest.test_case "fits one page" `Quick test_state_fits_one_page;
          Alcotest.test_case "round tables dominate" `Quick test_round_tables_dominate;
        ] );
      ( "aes-block",
        [
          Alcotest.test_case "equals fast" `Quick test_instrumented_equals_fast;
          Alcotest.test_case "cbc matches" `Quick test_instrumented_cbc_matches_mode;
          Alcotest.test_case "wipe" `Quick test_instrumented_wipe;
          Alcotest.test_case "round1 order" `Quick test_round1_lookup_order_is_permutation;
        ] );
      ( "machine-backed",
        [
          Alcotest.test_case "correct through memory" `Quick test_machine_backed_cipher_correct;
          Alcotest.test_case "generic schedule in DRAM" `Quick
            test_generic_aes_schedule_lands_in_dram;
          Alcotest.test_case "generic requires DRAM" `Quick test_generic_aes_requires_dram;
          Alcotest.test_case "bulk matches instrumented" `Quick test_generic_bulk_matches_instrumented;
        ] );
      ( "crypto-api",
        [
          Alcotest.test_case "priority" `Quick test_crypto_api_priority;
          Alcotest.test_case "not found" `Quick test_crypto_api_not_found;
          Alcotest.test_case "list sorted" `Quick test_crypto_api_list_sorted;
        ] );
      ( "hw-accel",
        [
          Alcotest.test_case "size sensitivity" `Quick test_hw_accel_size_sensitivity;
          Alcotest.test_case "down-scaling" `Quick test_hw_accel_downscaling;
          Alcotest.test_case "transform correct" `Quick test_hw_accel_transform_correct;
          Alcotest.test_case "tegra has none" `Quick test_hw_accel_unavailable_on_tegra;
        ] );
      ( "perf",
        [
          Alcotest.test_case "on-soc <1%" `Quick test_perf_onsoc_overhead_under_1pct;
          Alcotest.test_case "charge" `Quick test_perf_charge_advances_clock;
          Alcotest.test_case "invalid combos" `Quick test_perf_invalid_combos;
        ] );
      ( "key-derive",
        [
          Alcotest.test_case "volatile fresh" `Quick test_key_derive_volatile_fresh;
          Alcotest.test_case "persistent stable" `Quick test_key_derive_persistent_stable;
          Alcotest.test_case "device bound" `Quick test_key_derive_device_bound;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
