(** Byte-buffer helpers shared by the simulator and the attack tools. *)

(** [fill_pattern b pat] tiles [pat] across the whole of [b].  Seeds
    one copy of [pat], then doubles the filled prefix with [blit] —
    bytes are identical to the naive per-byte tiling, without the
    per-byte division over multi-megabyte workload regions. *)
let fill_pattern b pat =
  let pn = Bytes.length pat in
  if pn = 0 then invalid_arg "Bytes_util.fill_pattern: empty pattern";
  let n = Bytes.length b in
  let head = min pn n in
  Bytes.blit pat 0 b 0 head;
  let filled = ref head in
  while !filled < n do
    let chunk = min !filled (n - !filled) in
    Bytes.blit b 0 b !filled chunk;
    filled := !filled + chunk
  done

(** [count_pattern b pat] counts non-overlapping, pattern-aligned
    occurrences of [pat] in [b] — the measurement used by the paper's
    remanence experiment (fill memory with an 8-byte pattern, power
    cycle, grep and count). *)
let count_pattern b pat =
  let pn = Bytes.length pat in
  if pn = 0 then invalid_arg "Bytes_util.count_pattern: empty pattern";
  let n = Bytes.length b in
  let count = ref 0 in
  let i = ref 0 in
  while !i + pn <= n do
    let rec matches j = j = pn || (Bytes.get b (!i + j) = Bytes.get pat j && matches (j + 1)) in
    if matches 0 then incr count;
    i := !i + pn
  done;
  !count

(** [find_in b ~off ~len needle] returns the offset in [b] of the first
    occurrence of [needle] lying wholly inside the window [off, off +
    len), or [None]: a bounded search of a view, no copy. *)
let find_in b ~off ~len needle =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Bytes_util.find_in: bad window";
  let nn = Bytes.length needle in
  if nn = 0 then Some off
  else
    let limit = off + len - nn in
    let rec scan i =
      if i > limit then None
      else
        let rec matches j =
          j = nn || (Bytes.unsafe_get b (i + j) = Bytes.unsafe_get needle j && matches (j + 1))
        in
        if matches 0 then Some i else scan (i + 1)
    in
    scan off

(** [find b needle] returns the offset of the first occurrence of
    [needle] in [b], or [None]. Naive scan; dumps are tens of MB at most. *)
let find b needle = find_in b ~off:0 ~len:(Bytes.length b) needle

(** [contains b needle] tests whether [needle] occurs anywhere in [b]. *)
let contains b needle = Option.is_some (find b needle)

(** [xor_into ~src ~dst] xors [src] into [dst] in place.
    Lengths must match. *)
let xor_into ~src ~dst =
  let n = Bytes.length src in
  if Bytes.length dst <> n then invalid_arg "Bytes_util.xor_into: length mismatch";
  for i = 0 to n - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get src i) lxor Char.code (Bytes.unsafe_get dst i)))
  done

(** Constant-time equality (length leak only); attacks must not get a
    timing oracle from the simulator's own comparisons. *)
let equal_ct a b =
  let n = Bytes.length a in
  if Bytes.length b <> n then false
  else begin
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc lor (Char.code (Bytes.unsafe_get a i) lxor Char.code (Bytes.unsafe_get b i))
    done;
    !acc = 0
  end

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(** [equal_view a a_off b b_off len] is true when the [len]-byte views
    of [a] at [a_off] and of [b] at [b_off] hold the same bytes.  Both
    views are checked once; the compare then runs eight bytes at a
    time, stopping at the first word that differs, and allocates
    nothing.  Not constant time: for host-side buffers only. *)
let equal_view a a_off b b_off len =
  if len < 0 || a_off < 0 || b_off < 0 || a_off + len > Bytes.length a
     || b_off + len > Bytes.length b
  then invalid_arg "Bytes_util.equal_view: bad view";
  (* loops, not local recursive functions: those would be closures,
     allocated on every call *)
  let words_end = len land lnot 7 in
  let i = ref 0 in
  while !i < words_end && (get64u a (a_off + !i) : int64) = get64u b (b_off + !i) do
    i := !i + 8
  done;
  if !i < words_end then false
  else begin
    while !i < len && Bytes.unsafe_get a (a_off + !i) = Bytes.unsafe_get b (b_off + !i) do
      incr i
    done;
    !i = len
  end

(** [is_zero b] is true when every byte of [b] is ['\000']. *)
let is_zero b =
  let n = Bytes.length b in
  let rec go i = i = n || (Bytes.unsafe_get b i = '\000' && go (i + 1)) in
  go 0

(** [zero b] overwrites [b] with zero bytes. *)
let zero b = Bytes.fill b 0 (Bytes.length b) '\000'
