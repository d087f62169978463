let tag_size = 16

type subkeys = { left : Siphash.key; right : Siphash.key }

let subkeys key =
  if String.length key <> 16 then invalid_arg "Mac: key must be 16 bytes";
  let master = Siphash.key_of_string key in
  let derive label =
    { Siphash.k0 = Siphash.hash master ("mac-subkey:" ^ label ^ ":0");
      k1 = Siphash.hash master ("mac-subkey:" ^ label ^ ":1") }
  in
  { left = derive "left"; right = derive "right" }

let tag { left; right } msg =
  let b = Bytes.create tag_size in
  Bytes.set_int64_le b 0 (Siphash.hash left msg);
  Bytes.set_int64_le b 8 (Siphash.hash right msg);
  Bytes.unsafe_to_string b

let verify k msg ~tag:t =
  String.length t = tag_size && Byteskit.Bytes_ops.ct_equal (tag k msg) t
