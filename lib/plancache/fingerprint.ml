(* Stable content hashing for plan-cache keys: 64-bit FNV-1a over a
   type-tagged byte stream. OCaml's polymorphic [Hashtbl.hash] is
   neither stable across versions nor collision-resistant enough to
   address cache files on disk, so the key hash is computed explicitly
   from the ingredients the caller feeds in (access pattern bytes,
   transform descriptions, strategy, flags). Each ingredient is tagged
   with a type byte and variable-length values carry their length, so
   adjacent fields can never alias ("ab"+"c" vs "a"+"bc").

   Each [add_*] folds its bytes into a local [int64] and writes the
   builder once, at the end. The compiler keeps a local [int64] that
   never escapes unboxed, in a register, while every write to the
   builder's mutable field boxes a fresh one: writing the field per
   byte would allocate per byte, millions of boxes for the repair key
   of a mid-size mesh. Keys name files on disk, so the byte stream is
   a storage format; test_plancache pins it with known answers. *)

type t = int64

let equal = Int64.equal
let to_hex h = Printf.sprintf "%016Lx" h

let pp ppf h = Fmt.string ppf (to_hex h)

type builder = { mutable h : int64 }

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let create () = { h = fnv_offset }

let[@inline] byte h c =
  Int64.mul (Int64.logxor h (Int64.of_int (c land 0xff))) fnv_prime

(* [zero_run.(z)] = prime^z: hashing a zero byte is one multiply by
   the prime, so hashing z of them is one multiply by this. *)
let zero_run =
  let a = Array.make 9 1L in
  for z = 1 to 8 do
    a.(z) <- Int64.mul a.(z - 1) fnv_prime
  done;
  a

(* The 8 bytes of [v], little-endian, so every int hashes the same
   number of bytes. The bytes above the highest non-zero one are all
   zero and cost one multiply together: a small non-negative int, the
   common ingredient, hashes in a few steps, with the value of the
   byte-serial hash. *)
let[@inline] raw_int64 h v =
  let h = ref h and v = ref v and n = ref 0 in
  while !v <> 0L do
    h := byte !h (Int64.to_int !v);
    v := Int64.shift_right_logical !v 8;
    incr n
  done;
  Int64.mul !h (Array.unsafe_get zero_run (8 - !n))

let[@inline] raw_int h n = raw_int64 h (Int64.of_int n)

let add_int b n = b.h <- raw_int (byte b.h 0x01) n

let add_bool b v = b.h <- byte (byte b.h 0x02) (if v then 1 else 0)

let add_string b s =
  let h = ref (raw_int (byte b.h 0x03) (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  b.h <- !h

let add_int_array b a =
  let h = ref (raw_int (byte b.h 0x04) (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    h := raw_int !h (Array.unsafe_get a i)
  done;
  b.h <- !h

(* The row pointer, then the touches, each as [add_int_array] hashes
   it. A fixed-arity access stores no row pointer; the one it implies,
   [0; k; 2k; ...; k n_iter], is hashed in its place, so the key does
   not depend on how the rows are stored. *)
let add_access b (a : Reorder.Access.t) =
  let k = a.Reorder.Access.arity in
  if k = 0 then add_int_array b a.Reorder.Access.ptr
  else begin
    let n = a.Reorder.Access.n_iter + 1 in
    let h = ref (raw_int (byte b.h 0x04) n) in
    for r = 0 to n - 1 do
      h := raw_int !h (k * r)
    done;
    b.h <- !h
  end;
  add_int_array b a.Reorder.Access.dat

let add_float b f = b.h <- raw_int64 (byte b.h 0x05) (Int64.bits_of_float f)

let value b = b.h

(* Plain FNV-1a over the first [len] bytes of [buf], with no tags: the
   checksum that seals [Tuned]'s files. Eight bytes at a time, read
   little-endian, are the eight bytes [raw_int64] hashes in order; the
   tail goes byte by byte. *)
let checksum buf len =
  if len < 0 || len > Bytes.length buf then invalid_arg "Fingerprint.checksum";
  let h = ref fnv_offset in
  let words = len / 8 in
  for w = 0 to words - 1 do
    h := raw_int64 !h (Bytes.get_int64_le buf (8 * w))
  done;
  for i = 8 * words to len - 1 do
    h := byte !h (Char.code (Bytes.unsafe_get buf i))
  done;
  !h

(* The plan-cache checksum (format v5): four FNV-1a lanes over the
   little-endian 32-bit words, lane i taking words i, i + 4, i + 8, ...
   (each step [h <- (h xor word) * prime]); then the byte-serial FNV-1a
   folds the four lane values, eight little-endian bytes each, and the
   bytes after the last whole word. Four independent multiply chains
   over words instead of one chain over bytes, so a megabyte entry is
   checksummed in a fraction of the byte-serial time.

   A writer feeds whole 16-byte blocks (one word per lane) as it goes
   and seals the rest, so the lane a word lands in depends only on its
   offset. The lanes live in the record only between calls: each call
   works on local [int64]s, which the compiler keeps unboxed. *)
type lanes = {
  mutable l0 : int64;
  mutable l1 : int64;
  mutable l2 : int64;
  mutable l3 : int64;
}

let lanes () = { l0 = fnv_offset; l1 = fnv_offset; l2 = fnv_offset; l3 = fnv_offset }

let[@inline] word buf p =
  Int64.of_int (Int32.to_int (Bytes.get_int32_le buf p) land 0xffff_ffff)

let[@inline] step h w = Int64.mul (Int64.logxor h w) fnv_prime
let low_word = 0xffff_ffffL

let check_span what buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg what

(* A block is two little-endian 64-bit loads: the low half of each is
   the even lane's word, the high half the odd lane's. *)
let feed_blocks t buf off blocks =
  let a = ref t.l0 and b = ref t.l1 and c = ref t.l2 and d = ref t.l3 in
  for k = 0 to blocks - 1 do
    let p = off + (16 * k) in
    let x = Bytes.get_int64_le buf p and y = Bytes.get_int64_le buf (p + 8) in
    a := step !a (Int64.logand x low_word);
    b := step !b (Int64.shift_right_logical x 32);
    c := step !c (Int64.logand y low_word);
    d := step !d (Int64.shift_right_logical y 32)
  done;
  t.l0 <- !a;
  t.l1 <- !b;
  t.l2 <- !c;
  t.l3 <- !d

let feed t buf off len =
  check_span "Fingerprint.feed" buf off len;
  if len mod 16 <> 0 then invalid_arg "Fingerprint.feed: not whole blocks";
  feed_blocks t buf off (len / 16)

let seal t buf off len =
  check_span "Fingerprint.seal" buf off len;
  let blocks = len / 16 in
  feed_blocks t buf off blocks;
  let p = off + (16 * blocks) in
  let words = (len - (16 * blocks)) / 4 in
  if words > 0 then t.l0 <- step t.l0 (word buf p);
  if words > 1 then t.l1 <- step t.l1 (word buf (p + 4));
  if words > 2 then t.l2 <- step t.l2 (word buf (p + 8));
  let h = ref fnv_offset in
  h := raw_int64 !h t.l0;
  h := raw_int64 !h t.l1;
  h := raw_int64 !h t.l2;
  h := raw_int64 !h t.l3;
  for i = p + (4 * words) to off + len - 1 do
    h := byte !h (Char.code (Bytes.unsafe_get buf i))
  done;
  !h

let lane_checksum buf len =
  if len < 0 || len > Bytes.length buf then
    invalid_arg "Fingerprint.lane_checksum";
  seal (lanes ()) buf 0 len
