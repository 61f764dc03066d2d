"""Offline permutation routing on Benes networks (the looping algorithm).

A Benes network on ``N = 2**n`` terminals is *rearrangeable*: any
permutation can be routed with edge-disjoint paths.  The classical
looping algorithm sets the outer columns of 2x2 switches by 2-coloring
the constraint chains (two inputs sharing a switch must enter different
sub-networks; likewise two outputs sharing a switch), then recurses on
the two half-size Benes networks.

The **batched iterative engine** (:func:`route_permutations`,
:func:`apply_settings_batch`) replaces the recursion with one array pass
per recursion *level*: all ``2**d`` sub-Benes blocks of depth ``d`` —
across a whole ``(B, N)`` batch of permutations — are 2-colored at once
by vectorized cycle-chasing (pointer doubling over the constraint-chain
successor map) and split into their half-size sub-permutations with a
single scatter.  ``workers`` fans large batches out over a
multiprocessing pool, mirroring
:func:`repro.algorithms.queued_routing.sweep_rates`; chunking never
changes the settings — every permutation is routed independently.  The
original pure-Python recursion is the differential oracle in
``tests/oracles/benes_routing.py``: the batched engine's settings are
bit-for-bit identical to it, column by column.

:func:`route_permutation` / :func:`apply_settings` keep their historic
signatures but now run on the batched kernels (batch size 1).

The chain structure behind the vectorization: the coloring constraints
form a graph on inputs whose edges are two perfect matchings — inputs
sharing an input switch (``i <-> i ^ 1``) and inputs whose targets share
an output switch (``i <-> inv[perm[i] ^ 1]``).  Their union is a
disjoint set of even cycles; the legacy loop walks each cycle two edges
at a time via the successor ``step(i) = inv[perm[i] ^ 1] ^ 1``, giving
the walked elements color 0 and their input-switch partners color 1,
starting each chain at its smallest uncolored input.  Equivalently:
an input is colored 0 iff the minimum of its ``step``-orbit equals the
minimum of its whole constraint cycle — two orbit minima that pointer
doubling computes in ``log2 N`` gather passes.

Switch indexing: column ``s`` has ``N/2`` switches.  A sub-Benes of size
``M`` at switch offset ``f`` occupies switches ``[f, f + M/2)`` of each
of its columns; its top/bottom halves recurse at offsets ``f`` and
``f + M/4``.  Blocks of depth ``d`` are therefore contiguous and
aligned: block ``b`` owns terminals ``[b*M, (b+1)*M)`` and switches
``[b*M/2, (b+1)*M/2)`` — which is why the batched engine can treat a
whole column as one flat array.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..backend.shm import attach_cached, read_array, share_arrays

__all__ = [
    "BenesSettings",
    "BenesSettingsBatch",
    "route_permutation",
    "route_permutations",
    "apply_settings",
    "apply_settings_batch",
    "num_switch_stages",
]


def num_switch_stages(n: int) -> int:
    """Switch columns of a ``2**n``-terminal Benes: ``2n - 1``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2 * n - 1


@dataclass
class BenesSettings:
    """Explicit switch settings: ``stages[s][j]`` is True when switch
    ``j`` of column ``s`` is crossed."""

    n: int
    stages: List[List[bool]]

    @property
    def num_terminals(self) -> int:
        return 1 << self.n

    def count_crossed(self) -> int:
        return sum(sum(col) for col in self.stages)

    def to_array(self) -> np.ndarray:
        """The settings as a ``(2n-1, N/2)`` bool array."""
        return np.array(self.stages, dtype=bool)


@dataclass
class BenesSettingsBatch:
    """Switch settings for a batch of permutations.

    ``crossed[b, s, j]`` is True when switch ``j`` of column ``s`` is
    crossed for batch element ``b`` — the array form of ``B`` stacked
    :class:`BenesSettings`, produced by :func:`route_permutations`.
    """

    n: int
    crossed: np.ndarray  # (B, 2n - 1, N // 2) bool

    def __post_init__(self) -> None:
        expect = (num_switch_stages(self.n), 1 << (self.n - 1))
        if self.crossed.ndim != 3 or self.crossed.shape[1:] != expect:
            raise ValueError(
                f"crossed must have shape (B, {expect[0]}, {expect[1]}), "
                f"got {self.crossed.shape}"
            )

    @property
    def num_terminals(self) -> int:
        return 1 << self.n

    @property
    def batch_size(self) -> int:
        return self.crossed.shape[0]

    def __len__(self) -> int:
        return self.batch_size

    def count_crossed(self) -> np.ndarray:
        """Crossed switches per batch element, shape ``(B,)``."""
        return self.crossed.sum(axis=(1, 2))

    def settings(self, b: int) -> BenesSettings:
        """Batch element ``b`` as a plain :class:`BenesSettings`."""
        return BenesSettings(n=self.n, stages=self.crossed[b].tolist())


def _validate_perm(perm: Sequence[int]) -> int:
    N = len(perm)
    if N < 2 or N & (N - 1):
        raise ValueError(f"permutation length must be a power of two >= 2, got {N}")
    if sorted(perm) != list(range(N)):
        raise ValueError("not a permutation")
    return N.bit_length() - 1


def _validate_perm_batch(perms) -> np.ndarray:
    arr = np.asarray(perms, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"need a (B, N) batch of permutations, got shape {arr.shape}")
    N = arr.shape[1]
    if N < 2 or N & (N - 1):
        raise ValueError(f"permutation length must be a power of two >= 2, got {N}")
    if not np.array_equal(np.sort(arr, axis=1), np.broadcast_to(np.arange(N), arr.shape)):
        raise ValueError("not a permutation")
    return arr


# -- the batched iterative engine ----------------------------------------


# rows per kernel call are capped so the ~8 working buffers stay
# cache-resident: gathers dominate the kernel, and they run about twice
# as fast on ~256 KB buffers as on a full multi-megabyte batch pass
_CHUNK_ELEMS = 1 << 16


def _assert_alternating(pairs2d: np.ndarray, what: str) -> None:
    """Check that adjacent bool pairs ``(2j, 2j+1)`` differ, cheaply:
    viewed as little-endian uint16, a valid pair is 0x0001 or 0x0100."""
    v = np.ascontiguousarray(pairs2d).view(np.uint16)
    assert bool(np.all((v == 0x0001) | (v == 0x0100))), f"{what} coloring failed"


def _route_batch(
    perms: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Settings ``(B, 2n-1, N/2)`` for a validated ``(B, N)`` batch.

    ``out``, when given, receives the settings in place (the
    shared-memory worker path routes straight into the parent's output
    block instead of pickling results back).
    """
    B, N = perms.shape
    n = N.bit_length() - 1
    crossed = out
    if crossed is None:
        crossed = np.zeros((B, num_switch_stages(n), N // 2), dtype=bool)
    step = max(1, _CHUNK_ELEMS // N)
    for lo in range(0, B, step):
        _route_block(perms[lo : lo + step], crossed[lo : lo + step])
    return crossed


def _route_block(perms: np.ndarray, crossed: np.ndarray) -> None:
    """Fill ``crossed`` for one cache-sized block of a ``(B, N)`` batch.

    One iteration per recursion depth ``d``: every size-``M = N/2**d``
    sub-Benes block of every batch element is processed in the same
    array pass.  ``sub`` holds, at flat position ``q = b*N + f*M + i``,
    the block-local target of block ``f``'s input ``i`` of batch row
    ``b`` — exactly the ``perm`` argument of every recursive call of
    that depth, laid side by side.  All index arithmetic runs on
    flat 1-D buffers (int32 while indices fit) reused across levels:
    blocks are aligned, so a flat index's block-local part is just its
    low ``log2 M`` bits and gathers never cross batch rows.  Gather
    indices are valid by construction, so every ``take`` runs with
    ``mode="wrap"`` to skip NumPy's per-element bounds check.

    The 2-coloring folds both chain minima into one min-chase.  With
    ``r0(q) = min(2q, 2*(q^1) + 1)``, the minimum of ``r0`` over a
    ``step``-orbit is even iff the orbit's own minimum beats every
    input-switch partner of the orbit — i.e. iff the legacy loop starts
    the chain inside this orbit and colors it 0.  The low bit of the
    pointer-doubled minimum therefore *is* the color.  Orbits pair up
    the constraint cycles (disjoint even cycles of length <= M), so
    every orbit has at most M/2 elements and ``log2(M) - 1`` doublings
    converge the minima.
    """
    B, N = perms.shape
    n = N.bit_length() - 1
    total = B * N
    # packed minima reach 2*total + 1; stay in int32 while that fits
    dtype = np.int32 if 2 * total + 1 <= np.iinfo(np.int32).max else np.int64

    sub = perms.astype(dtype).reshape(-1).copy()
    q = np.arange(total, dtype=dtype)
    qx = q ^ 1  # input-switch partner of each flat position
    r0 = np.where(q & 1, 2 * q - 1, 2 * q)  # min(2q, 2*(q^1) + 1)
    base = np.empty_like(q)  # flat start of each position's block
    glob = np.empty_like(q)  # block-local targets as flat indices
    inv2 = np.empty_like(q)  # inv2[t] = step of the position targeting t^1
    hop = np.empty_like(q)
    r = np.empty_like(q)
    tmp = np.empty_like(q)
    tmp2 = np.empty_like(q)
    color2d = np.empty((B, N), dtype=bool)
    out2d = np.empty((B, N), dtype=bool)

    for d in range(n - 1):
        M = N >> d
        np.bitwise_and(q, ~(M - 1), out=base)
        np.add(base, sub, out=glob)

        # chain successor step(q) = inv[glob[q] ^ 1] ^ 1 in one gather:
        # pre-shift the scatter so inv2[t] = inv[t ^ 1] ^ 1
        np.bitwise_xor(glob, 1, out=tmp)
        inv2[tmp] = qx
        inv2.take(glob, mode="wrap", out=hop)

        # pointer doubling on the packed minima (see docstring)
        np.copyto(r, r0)
        for k in range(max(1, n - d - 1)):
            r.take(hop, mode="wrap", out=tmp)
            np.minimum(r, tmp, out=r)
            if k < n - d - 2:  # last round's composition is never read
                hop.take(hop, mode="wrap", out=tmp2)
                hop, tmp2 = tmp2, hop

        color = color2d.reshape(-1)
        np.bitwise_and(r, 1, out=tmp)
        np.not_equal(tmp, 0, out=color)  # True = bottom sub-network
        out_color = out2d.reshape(-1)
        out_color[glob] = color
        _assert_alternating(color2d, "input")
        _assert_alternating(out2d, "output")
        crossed[:, d, :] = color2d[:, 0::2]
        crossed[:, 2 * n - 2 - d, :] = out2d[:, 0::2]

        # sub-permutations on half-size terminal spaces: input i reaches
        # its sub-network's terminal i//2 and must exit at sub-terminal
        # sub[i]//2; the bottom network owns the block's upper half.
        # base is divisible by M (even), so base + (q & (M-1)) // 2
        # is just (q + base) >> 1.
        np.add(q, base, out=tmp)
        np.right_shift(tmp, 1, out=tmp)
        np.multiply(color, M >> 1, out=tmp2, casting="unsafe")
        np.add(tmp, tmp2, out=tmp)  # tmp = new flat position
        np.right_shift(sub, 1, out=sub)
        glob[tmp] = sub  # reuse glob as the next level's sub
        sub, glob = glob, sub

    sub2d = sub.reshape(B, N)
    crossed[:, n - 1, :] = sub2d[:, 0::2] == 1  # middle column: 2x2 base case


def _route_chunk_shm(args) -> None:
    """Pool worker: route rows ``[lo, hi)`` of the shared perms block
    straight into the shared output block.

    The per-job pickle payload is ``(pack, lo, hi)`` — a few hundred
    bytes however large the batch: inputs arrive as zero-copy
    shared-memory views and the settings land in the parent's shared
    ``crossed`` array, so nothing big crosses the pipe in either
    direction.
    """
    pack, lo, hi = args
    views = attach_cached(pack)
    _route_batch(views["perms"][lo:hi], out=views["crossed"][lo:hi])


def route_permutations(
    perms,
    *,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
) -> BenesSettingsBatch:
    """Route a ``(B, N)`` batch of permutations in one vectorized pass.

    Row ``b`` of the result carries the settings realizing ``perms[b]``
    (input ``i`` delivered to output ``perms[b][i]``), bit-for-bit
    identical to the recursive looping algorithm on ``perms[b]``.  With
    ``workers > 1`` the batch is split into ``chunk``-row chunks
    (default: one chunk per worker) farmed out to a multiprocessing
    pool through one shared-memory block — workers read their
    permutation rows and write their settings rows as zero-copy views;
    permutations are routed independently, so the split never changes
    the settings.
    """
    arr = _validate_perm_batch(perms)
    B = arr.shape[0]
    n = arr.shape[1].bit_length() - 1
    if workers and workers > 1 and B > 1:
        size = chunk or -(-B // workers)
        spans = [(lo, min(lo + size, B)) for lo in range(0, B, size)]
        if len(spans) > 1:
            procs = min(workers, len(spans))
            crossed = np.zeros(
                (B, num_switch_stages(n), arr.shape[1] // 2), dtype=bool
            )
            with share_arrays(perms=arr, crossed=crossed) as pack:
                payloads = [(pack, lo, hi) for lo, hi in spans]
                with multiprocessing.get_context().Pool(procs) as pool:
                    pool.map(_route_chunk_shm, payloads)
                crossed = read_array(pack, "crossed")
            return BenesSettingsBatch(n=n, crossed=crossed)
    return BenesSettingsBatch(n=n, crossed=_route_batch(arr))


def route_permutation(perm: Sequence[int]) -> BenesSettings:
    """Compute switch settings realizing ``perm`` (input ``i`` is
    delivered to output ``perm[i]``).

    Runs on the batched engine with batch size 1.
    """
    n = _validate_perm(perm)
    crossed = _route_batch(np.asarray(perm, dtype=np.int64)[np.newaxis, :])
    return BenesSettings(n=n, stages=crossed[0].tolist())


def _settings_to_crossed(settings: BenesSettings) -> np.ndarray:
    stages = settings.stages
    expect_cols = num_switch_stages(settings.n)
    if len(stages) != expect_cols or any(
        len(col) != settings.num_terminals // 2 for col in stages
    ):
        raise ValueError(
            f"settings must have {expect_cols} columns of "
            f"{settings.num_terminals // 2} switches"
        )
    return np.array(stages, dtype=bool)[np.newaxis, :, :]


def _apply_batch(crossed: np.ndarray) -> np.ndarray:
    """Realized permutations ``(B, N)`` of a ``(B, 2n-1, N/2)`` batch,
    in cache-sized row blocks that reuse one set of buffers."""
    B, S, H = crossed.shape
    N = 2 * H
    out = np.empty((B, N), dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // N)
    # flat offset of each position's settings row, for a full block
    rows = np.repeat(np.arange(min(step, B), dtype=np.int64) * (S * H), N)
    t, u = np.empty_like(rows), np.empty_like(rows)
    swap = np.empty(rows.size, dtype=crossed.dtype)
    for lo in range(0, B, step):
        k = (min(lo + step, B) - lo) * N
        _apply_block(
            crossed[lo:lo + step], out[lo:lo + step],
            rows[:k], t[:k], u[:k], swap[:k],
        )
    return out


def _apply_block(
    crossed: np.ndarray,
    out: np.ndarray,
    rows: np.ndarray,
    t: np.ndarray,
    u: np.ndarray,
    swap: np.ndarray,
) -> None:
    """Fill ``out`` ``(b, N)`` with the realized permutations of one
    ``(b, 2n-1, N/2)`` block of settings; ``rows``, ``t``, ``u`` and
    ``swap`` are flat ``b * N`` buffers (``rows`` holds each position's
    settings-row offset).

    Simulates the switched network column by column: token ``i`` starts
    at wire position ``i``; a column swaps positions ``2j <-> 2j+1``
    where its switch ``j`` is crossed (blocks are aligned, so the global
    pair index is ``pos // 2`` in every column); between columns the
    fixed Benes wiring fans each size-``M`` block out to its two halves
    (forward) or merges them back (mirror).  Column ``s`` of row ``r``
    starts at ``flat[r*S*H + s*H]``, so one ``take`` on ``flat[s*H:]``
    at ``rows + pos // 2`` reads every row's switches; every index is
    in range, so ``mode="wrap"`` only skips the bounds check.
    """
    _b, S, H = crossed.shape
    N = 2 * H
    n = (S + 1) // 2
    flat = np.ascontiguousarray(crossed).reshape(-1)
    out[...] = np.arange(N, dtype=np.int64)
    cur = out.reshape(-1)

    def through_column(s: int) -> None:
        np.right_shift(cur, 1, out=t)
        np.add(t, rows, out=t)
        flat[s * H:].take(t, mode="wrap", out=swap)
        np.bitwise_xor(cur, swap, out=cur)

    for d in range(n - 1):
        M = N >> d
        through_column(d)
        # top output of switch j enters the top half at sub-position j:
        # local 2j + p  ->  p*M/2 + j
        np.bitwise_and(cur, M - 1, out=t)
        cur -= t
        np.bitwise_and(t, 1, out=u)
        u *= M >> 1
        cur += u
        t >>= 1
        cur += t
    through_column(n - 1)  # middle column: the 2x2 base case
    for d in range(n - 2, -1, -1):
        M = N >> d
        # sub-output j of half p re-enters the last column's switch j:
        # local p*M/2 + j  ->  2j + p
        np.bitwise_and(cur, M - 1, out=t)
        cur -= t
        np.bitwise_and(t, (M >> 1) - 1, out=u)
        u <<= 1
        cur += u
        t >>= n - d - 1
        cur += t
        through_column(2 * n - 2 - d)


def apply_settings_batch(settings: BenesSettingsBatch) -> np.ndarray:
    """Simulate the switched network for a whole batch; row ``b`` is the
    realized permutation of batch element ``b`` (token injected at input
    ``i`` appears at output ``result[b, i]``)."""
    return _apply_batch(settings.crossed)


def apply_settings(settings: BenesSettings) -> List[int]:
    """Simulate the switched network; returns the realized permutation
    (token injected at input ``i`` appears at output ``result[i]``).

    Runs on the batched engine.
    """
    return _apply_batch(_settings_to_crossed(settings))[0].tolist()
