"""The original recursive Benes looping algorithm.

:func:`route_permutation_legacy` 2-colors the constraint chains of one
permutation and recurses on the two half-size sub-networks;
:func:`apply_settings_legacy` pushes tokens through the same recursion.
The batched engine in :mod:`repro.algorithms.benes_routing` must produce
settings bit-for-bit identical to these, column by column.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.algorithms.benes_routing import (
    BenesSettings,
    _validate_perm,
    num_switch_stages,
)

__all__ = ["route_permutation_legacy", "apply_settings_legacy"]


def route_permutation_legacy(perm: Sequence[int]) -> BenesSettings:
    """The original recursive looping algorithm — the oracle the batched
    engine is checked against, bit for bit."""
    n = _validate_perm(perm)
    N = 1 << n
    settings = BenesSettings(
        n=n, stages=[[False] * (N // 2) for _ in range(num_switch_stages(n))]
    )
    _route_legacy(list(perm), stage0=0, settings=settings, offset=0)
    return settings


def _two_color(perm: List[int]) -> List[int]:
    """Assign each input a sub-network (0 = top, 1 = bottom) such that
    switch partners (inputs 2j, 2j+1 and outputs 2j, 2j+1) get different
    colors and ``color(output) = color(input)`` along ``perm``."""
    N = len(perm)
    inv = [0] * N
    for i, p in enumerate(perm):
        inv[p] = i
    color: List[Optional[int]] = [None] * N
    for start in range(N):
        if color[start] is not None:
            continue
        i, c = start, 0
        while True:
            color[i] = c
            partner_out = perm[i] ^ 1  # shares the output switch
            j = inv[partner_out]  # must take the other network
            color[j] = 1 - c
            nxt = j ^ 1  # shares j's input switch
            if color[nxt] is not None:
                break  # chain closed into a cycle
            i, c = nxt, c  # nxt must take the opposite of j = same as c
    return color  # type: ignore[return-value]


def _route_legacy(
    perm: List[int], stage0: int, settings: BenesSettings, offset: int
) -> None:
    N = len(perm)
    half = N // 2
    if N == 2:
        settings.stages[stage0][offset] = perm[0] == 1
        return
    n_sub = N.bit_length() - 1
    last = stage0 + 2 * n_sub - 2

    in_color = _two_color(perm)
    out_color = [0] * N
    for i, p in enumerate(perm):
        out_color[p] = in_color[i]

    for j in range(half):
        assert in_color[2 * j] != in_color[2 * j + 1], "input coloring failed"
        assert out_color[2 * j] != out_color[2 * j + 1], "output coloring failed"
        settings.stages[stage0][offset + j] = in_color[2 * j] == 1
        settings.stages[last][offset + j] = out_color[2 * j] == 1

    # sub-permutations on half-size terminal spaces: input i reaches its
    # sub-network's terminal i//2 and must exit at sub-terminal perm[i]//2
    top = [0] * half
    bottom = [0] * half
    for i, p in enumerate(perm):
        (top if in_color[i] == 0 else bottom)[i // 2] = p // 2
    _route_legacy(top, stage0 + 1, settings, offset)
    _route_legacy(bottom, stage0 + 1, settings, offset + half // 2)


def apply_settings_legacy(settings: BenesSettings) -> List[int]:
    """The original recursive simulator — oracle for
    :func:`apply_settings` / :func:`apply_settings_batch`."""
    N = settings.num_terminals
    result = [0] * N
    _apply_legacy(list(range(N)), 0, settings, 0, list(range(N)), result)
    return result


def _apply_legacy(
    tokens: List[int],
    stage0: int,
    settings: BenesSettings,
    offset: int,
    out_ids: List[int],
    result: List[int],
) -> None:
    """Push ``tokens`` through the sub-network whose outputs are the
    global outputs ``out_ids``; record arrivals in ``result``."""
    N = len(tokens)
    if N == 2:
        a, b = tokens
        if settings.stages[stage0][offset]:
            a, b = b, a
        result[a] = out_ids[0]
        result[b] = out_ids[1]
        return
    half = N // 2
    n_sub = N.bit_length() - 1
    last = stage0 + 2 * n_sub - 2

    top_in: List[int] = []
    bot_in: List[int] = []
    for j in range(half):
        a, b = tokens[2 * j], tokens[2 * j + 1]
        if settings.stages[stage0][offset + j]:
            a, b = b, a
        top_in.append(a)
        bot_in.append(b)

    top_out: List[int] = []
    bot_out: List[int] = []
    for j in range(half):
        pa, pb = out_ids[2 * j], out_ids[2 * j + 1]
        if settings.stages[last][offset + j]:
            pa, pb = pb, pa
        top_out.append(pa)
        bot_out.append(pb)

    _apply_legacy(top_in, stage0 + 1, settings, offset, top_out, result)
    _apply_legacy(bot_in, stage0 + 1, settings, offset + half // 2, bot_out, result)
