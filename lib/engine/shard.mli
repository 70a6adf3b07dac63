(** Deterministic intra-run sharding of a VM's vCPUs.

    The per-epoch kernel of {!Runner} iterates over vCPUs; to compute
    it on several {!Pool.Team} members at once without changing a
    single output bit, the vCPU index space is cut into contiguous
    ranges that depend only on (vCPU count, shard count) — never on
    scheduling — and every cross-vCPU accumulation is kept out of the
    kernel, done afterwards in one sequential vCPU-order reduction. *)

type range = { lo : int; hi : int }
(** Half-open: the shard owns vCPUs [lo .. hi-1]. *)

val partition : count:int -> shards:int -> range array
(** Cut [0 .. count-1] into at most [shards] contiguous ranges in
    ascending order, sizes differing by at most one ([i * count /
    shards] boundaries).  Never returns an empty range: the result has
    [min shards count] elements ([max 1] of them, a single possibly
    empty range when [count = 0]).  A pure function of its arguments —
    the same partition on every run, every host. *)
