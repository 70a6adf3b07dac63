type range = { lo : int; hi : int }

let partition ~count ~shards =
  if count < 0 then invalid_arg "Shard.partition: negative count";
  if shards < 1 then invalid_arg "Shard.partition: shards must be >= 1";
  let k = max 1 (min shards count) in
  Array.init k (fun s -> { lo = s * count / k; hi = (s + 1) * count / k })
