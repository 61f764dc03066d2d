"""The original pure-Python queued-routing simulator.

:func:`simulate_butterfly_queued_legacy` is the triple loop over
cycles, stages and rows that the vectorized engine in
:mod:`repro.algorithms.queued_routing` replaced.  With the same seed both
give identical offered / delivered / drained counts and latency totals:
the legacy enqueue order (cycle ascending, then source row ascending) is
the engine's scatter-pass order.  The loop samples ``max_queue`` every
64 cycles and keeps no trace; :mod:`tests.oracles.queued_ring` is the
exact reference for those and for batched runs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.algorithms.queued_routing import SimResult, _default_drain, _validate

__all__ = ["simulate_butterfly_queued_legacy"]


def simulate_butterfly_queued_legacy(
    n: int,
    rate_per_input: float,
    cycles: int = 2000,
    warmup: int = 200,
    seed: int = 0,
    drain: Optional[int] = None,
) -> SimResult:
    """Reference pure-Python simulator (the pre-vectorization triple
    loop), kept for differential testing: same seed gives identical
    offered / delivered / drained counts and latency totals as
    :func:`simulate_butterfly_queued`.  Its ``max_queue`` is still the
    historical coarse sample (every 64 cycles), a lower bound on the
    engine's exact peak.
    """
    _validate(n, rate_per_input, cycles)
    if drain is None:
        drain = _default_drain(n)
    R = 1 << n
    rng = np.random.default_rng(seed)
    # queues[s][r][o]: packets at node (r, s) waiting on output o
    # (0 = straight, 1 = cross); a packet is (dest_row, inject_cycle)
    queues: List[List[Tuple[Deque, Deque]]] = [
        [(deque(), deque()) for _ in range(R)] for _ in range(n)
    ]
    offered = delivered = drained = 0
    latency_total = 0
    max_queue = 0
    drain_cycles = 0
    in_flight = 0

    inject = rng.random((cycles, R)) < rate_per_input
    dests = rng.integers(0, R, size=(cycles, R))

    for t in range(cycles + drain):
        if t >= cycles:
            if in_flight == 0:
                break
            drain_cycles += 1
        # advance stages back-to-front so a packet moves one hop per cycle
        for s in range(n - 1, -1, -1):
            bit = 1 << s
            for r in range(R):
                straight, cross = queues[s][r]
                # straight link (r,s)->(r,s+1)
                if straight:
                    pkt = straight.popleft()
                    if s + 1 == n:
                        in_flight -= 1
                        if pkt[1] >= warmup:
                            if t < cycles:
                                delivered += 1
                            else:
                                drained += 1
                            latency_total += t + 1 - pkt[1]
                    else:
                        _enqueue(queues, pkt, r, s + 1, n)
                # cross link (r,s)->(r^bit,s+1)
                if cross:
                    pkt = cross.popleft()
                    if s + 1 == n:
                        in_flight -= 1
                        if pkt[1] >= warmup:
                            if t < cycles:
                                delivered += 1
                            else:
                                drained += 1
                            latency_total += t + 1 - pkt[1]
                    else:
                        _enqueue(queues, pkt, r ^ bit, s + 1, n)
        # injections at stage 0
        if t < cycles:
            for r in np.nonzero(inject[t])[0]:
                pkt = (int(dests[t, r]), t)
                if t >= warmup:
                    offered += 1
                in_flight += 1
                _enqueue(queues, pkt, int(r), 0, n)
        if t % 64 == 0:
            backlog = max(
                len(q)
                for stage in queues
                for node in stage
                for q in node
            )
            max_queue = max(max_queue, backlog)

    completed = delivered + drained
    avg_latency = latency_total / completed if completed else float("inf")
    return SimResult(
        n=n,
        rate_per_input=rate_per_input,
        cycles=cycles,
        offered=offered,
        delivered=delivered,
        avg_latency=avg_latency,
        max_queue=max_queue,
        warmup=warmup,
        drained=drained,
        drain_cycles=drain_cycles,
        in_flight=in_flight,
    )


def _enqueue(queues, pkt, r: int, s: int, n: int) -> None:
    dest = pkt[0]
    out = 1 if ((r ^ dest) >> s) & 1 else 0
    queues[s][r][out].append(pkt)
