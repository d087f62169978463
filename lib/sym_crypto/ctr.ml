let iv_size = 8

let transform key ~iv data =
  if String.length iv <> iv_size then invalid_arg "Ctr: iv must be 8 bytes";
  let ivw = String.get_int64_le iv 0 in
  let n = String.length data in
  let out = Bytes.create n in
  let full = n / 8 in
  for i = 0 to full - 1 do
    Bytes.set_int64_le out (8 * i)
      (Int64.logxor (String.get_int64_le data (8 * i))
         (Siphash.hash2 key ivw (Int64.of_int i)))
  done;
  if n > 8 * full then begin
    let ks = Siphash.hash2 key ivw (Int64.of_int full) in
    for j = 8 * full to n - 1 do
      let k = Int64.to_int (Int64.shift_right_logical ks (8 * (j land 7))) in
      Bytes.set out j (Char.chr ((Char.code data.[j] lxor k) land 0xFF))
    done
  end;
  Bytes.unsafe_to_string out

let keystream key ~iv n =
  if n < 0 then invalid_arg "Ctr.keystream: negative length";
  transform key ~iv (String.make n '\000')
