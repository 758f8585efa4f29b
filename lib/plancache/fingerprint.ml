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
   checksum that seals the files of the on-disk tiers. Eight bytes at a
   time, read little-endian, are the eight bytes [raw_int64] hashes in
   order; the tail goes byte by byte. *)
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
