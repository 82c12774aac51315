(* Framed WAL encoding: every record is a self-describing byte string
     [seq:8 LE][len:4 LE][crc:4 LE][payload]
   where [len] is the payload length and [crc] is CRC-32 over the whole
   frame with the crc field zeroed. The payload is
     [tx:8 LE][decision:1][count:4 LE]([item:8 LE][value:8 LE])*
   Sequence numbers are assigned monotonically by the engine and never
   reused, so recovery can tell "records missing in the middle" from "log
   legitimately starts later". *)

type record = {
  seq : int;
  tx : Transaction.id;
  decision : Certifier.decision;
  writes : (int * int) list;
}

type error = Torn | Bad_checksum | Bad_length

type repair =
  | Torn_tail_truncated
  | Corrupt_record_dropped of int
  | Sequence_gap of { expected : int; found : int }

let header_len = 16
let crc_off = 12

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by 8.
   Entry [n] of table 0 is the register after shifting byte [n] through the
   eight bitwise steps; entry [n] of table [k] is table [k - 1]'s entry
   shifted through one more zero byte, so the XOR of eight lookups (one per
   table) advances the register past eight bytes at once, read as two
   32-bit little-endian words. A byte loop finishes the tail. The checksum
   bytes are those of the bitwise definition. The tables live in one flat
   array, table [k] at offset [256 * k], built once at module
   initialisation and never written afterwards. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let byte_step c byte = Array.unsafe_get crc_tables ((c lxor byte) land 0xFF) lxor (c lsr 8)

(* The register after feeding bytes [pos, pos + len) of [s] to [crc]. *)
let crc_update crc s ~pos ~len =
  let tbl k x = Array.unsafe_get crc_tables ((k lsl 8) lor (x land 0xFF)) in
  let crc = ref crc and i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let one = Int32.to_int (String.get_int32_le s !i) lxor !crc in
    let two = Int32.to_int (String.get_int32_le s (!i + 4)) in
    crc :=
      tbl 7 one lxor tbl 6 (one lsr 8) lxor tbl 5 (one lsr 16) lxor tbl 4 (one lsr 24)
      lxor tbl 3 two lxor tbl 2 (two lsr 8) lxor tbl 1 (two lsr 16) lxor tbl 0 (two lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    crc := byte_step !crc (Char.code (String.get s j))
  done;
  !crc

let crc_final crc = (crc lxor 0xFFFFFFFF) land 0xFFFFFFFF

let crc32 bytes ~pos ~len =
  crc_final (crc_update 0xFFFFFFFF (Bytes.unsafe_to_string bytes) ~pos ~len)

(* Stands in for the crc field when a stored frame is checked. *)
let zero_crc_field = String.make 4 '\000'

let decision_byte = function Certifier.Commit -> 0 | Certifier.Abort -> 1

let encode ~seq ~tx ~decision ~writes =
  let count = List.length writes in
  let payload_len = 13 + (16 * count) in
  let b = Bytes.create (header_len + payload_len) in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int32_le b 8 (Int32.of_int payload_len);
  Bytes.set_int32_le b crc_off 0l;
  Bytes.set_int64_le b 16 (Int64.of_int tx);
  Bytes.set_uint8 b 24 (decision_byte decision);
  Bytes.set_int32_le b 25 (Int32.of_int count);
  List.iteri
    (fun i (item, v) ->
      let off = 29 + (16 * i) in
      Bytes.set_int64_le b off (Int64.of_int item);
      Bytes.set_int64_le b (off + 8) (Int64.of_int v))
    writes;
  let crc = crc32 b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set_int32_le b crc_off (Int32.of_int crc);
  Bytes.unsafe_to_string b

let decode ?(verify = true) s =
  let n = String.length s in
  if n < header_len then Error Torn
  else begin
    let payload_len = Int32.to_int (String.get_int32_le s 8) in
    if payload_len < 13 then Error Bad_length
    else if header_len + payload_len > n then Error Torn
    else if header_len + payload_len < n then Error Bad_length
    else begin
      let stored = Int32.to_int (String.get_int32_le s crc_off) land 0xFFFFFFFF in
      (* The checksum of the frame with its crc field zeroed, read in place:
         the bytes before the field, four zero bytes, then the rest. *)
      let computed =
        let c = crc_update 0xFFFFFFFF s ~pos:0 ~len:crc_off in
        let c = crc_update c zero_crc_field ~pos:0 ~len:4 in
        crc_final (crc_update c s ~pos:header_len ~len:(n - header_len))
      in
      if verify && stored <> computed then Error Bad_checksum
      else begin
        let seq = Int64.to_int (String.get_int64_le s 0) in
        let tx = Int64.to_int (String.get_int64_le s 16) in
        let decision_ok = String.get_uint8 s 24 in
        let count = Int32.to_int (String.get_int32_le s 25) in
        if count < 0 || 29 + (16 * count) <> header_len + payload_len then Error Bad_length
        else
          match decision_ok with
          | 0 | 1 ->
              let decision = if decision_ok = 0 then Certifier.Commit else Certifier.Abort in
              let writes =
                List.init count (fun i ->
                    let off = 29 + (16 * i) in
                    ( Int64.to_int (String.get_int64_le s off),
                      Int64.to_int (String.get_int64_le s (off + 8)) ))
              in
              Ok { seq; tx; decision; writes }
          | _ -> Error Bad_checksum
      end
    end
  end

let scan ?(verify = true) frames =
  let rec go acc repairs expected = function
    | [] -> (List.rev acc, List.rev repairs)
    | f :: rest -> (
        match decode ~verify f with
        | Ok r ->
            let repairs =
              match expected with
              | Some e when r.seq <> e -> Sequence_gap { expected = e; found = r.seq } :: repairs
              | _ -> repairs
            in
            go (r :: acc) repairs (Some (r.seq + 1)) rest
        | Error Torn when rest = [] ->
            (* A short tail frame is the torn-write signature: the crash cut
               the last append mid-record. Repair by dropping it. *)
            (List.rev acc, List.rev (Torn_tail_truncated :: repairs))
        | Error _ ->
            (* A bad frame mid-log (or a well-formed-length tail with a bad
               checksum) is bit-rot. Drop it; assume it consumed one
               sequence number so the following good record does not also
               report a gap. *)
            let at = match expected with Some e -> e | None -> -1 in
            go acc
              (Corrupt_record_dropped at :: repairs)
              (Option.map (fun e -> e + 1) expected)
              rest)
  in
  go [] [] None frames
