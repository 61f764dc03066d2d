"""Dynamic (queued) routing on butterflies: the injection-rate wall, as a batched NumPy engine.

Section 2.3's lower bound rests on "the maximum injection rate is
Theta(1/log R) since the average distance is O(log R) and the traffic is
balanced".  :mod:`repro.algorithms.routing` verifies the *static* side
(balanced path counts); this module adds the *dynamic* side: a
synchronous store-and-forward simulator with unit-capacity links and
FIFO queues, showing

* throughput tracking offered load up to a per-input rate near 1 —
  i.e. a per-**node** rate ``~ 1/(n+1) = Theta(1/log N)``, the paper's
  injection-rate ceiling; and
* queueing delay exploding as the offered load approaches the wall.

The model (under which the paper's counting argument is exact):

* one FIFO per (node, output link), infinite buffers;
* each link forwards at most one packet per cycle; a packet advances at
  most one stage per cycle (stages are serviced back-to-front);
* Bernoulli(``rate_per_input``) arrivals per input per cycle with
  uniform random destinations, routed by destination bits;
* after the measured window a bounded *drain* phase (no new injections)
  lets packets already in flight complete, so short runs do not
  under-report acceptance.

:func:`simulate_butterfly_queued` is the engine.  It keeps no queues:
a FIFO served once per cycle obeys the Lindley recurrence, so a packet's
pop cycle is fixed when it is enqueued (``p = max(t + 1, nf[q])``, then
``nf[q] = p + 1``).  A *pop-time calendar* — one row per upcoming cycle,
one slot per FIFO — files each packet under its pop cycle; each cycle
pops its row at once, and a two-pass collision-free scatter files the
popped packets under their next-stage queues.  There is no Python-level
loop over nodes, and :func:`sweep_rates` batches many independent
(rate, seed) runs through the *same* loop.  Injections are drawn one
block of about ``2**16`` (cycle, input) pairs at a time, reading
exactly the numbers a whole-run draw would, so a run's memory is
O(R x block + calendar) however many cycles it has.  The original
pure-Python triple loop is the reference for differential tests
(``tests/oracles/queued_routing.py``): with the same seed both produce
*identical* offered / delivered / drained counts and latency totals (the
loop's enqueue order — cycle ascending, then source row ascending — is
exactly the scatter-pass order, because the two packets that can collide
on one queue always differ in bit ``stage`` of the source row).

Metric definitions (see :class:`SimResult`):

* ``throughput_per_input`` — post-warmup deliveries per input per
  *measured* cycle, i.e. ``delivered / ((cycles - warmup) * R)``;
* ``accepted_fraction`` — ``(delivered + drained) / offered``: the
  fraction of offered packets the network delivered once in-flight
  packets were given the bounded drain to land;
* ``max_queue`` — the exact peak backlog of any single FIFO (read off
  every enqueue, not sampled: right after a push at cycle ``t`` the
  backlog is ``p - t``).
"""

from __future__ import annotations

import csv
import json
import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SimResult",
    "StatsTrace",
    "simulate_butterfly_queued",
    "sweep_rates",
    "saturation_per_node_rate",
]

#: Default drain budget, in multiples of the hop count ``n + 1``: long
#: enough to land the pipeline tail at sub-saturation loads, far too
#: short to erase the growing backlog that signals saturation.
_DRAIN_FACTOR = 4


def _default_drain(n: int) -> int:
    return _DRAIN_FACTOR * (n + 1)


def _qid_layout(n: int, B: int) -> Tuple[int, int, int, int]:
    """Global queue-id layout for a ``B``-job batch on ``B_n``.

    Returns ``(jmask, sshift, cstride, num_q)`` for the id packing
    ``class | stage | job | row-rest | out`` shared by the engine and
    the injection blocks.  ``class`` is bit ``stage`` of the
    queue's row, the scatter pass its packets leave in.  It is the top
    *digit*, worth ``cstride = n << sshift``, not a bit: each class is
    then one id run sorted by stage, and a one-job batch numbers its
    ``2 n R`` FIFOs ``0 .. num_q - 1`` with no gap.
    """
    jb = (B - 1).bit_length()
    sshift = jb + n
    cstride = n << sshift
    return (1 << jb) - 1, sshift, cstride, 2 * cstride


def _packet_dtype(n: int, cycles: int, drain: int):
    """Packed-packet dtype: ``(inject_cycle << n) | route`` must fit."""
    return np.int32 if ((cycles + drain) << n) < 2**31 else np.int64


#: (cycle, input) draws per injection block, across the batch: a block
#: runs ``max(1, _BLOCK_DRAWS // (R * B))`` cycles, so the injection
#: arrays stay O(block) however many cycles the run has.
_BLOCK_DRAWS = 1 << 16


def _injection_blocks(
    n: int,
    jobs: Sequence[Tuple[float, int]],
    cycles: int,
    warmup: int,
    pdtype,
) -> Iterator[Tuple]:
    """Draw every injection of every job, one block of cycles at a time.

    Yields ``(c0, c1, offered, inj_percycle, ival, iqid, itin)`` for
    cycles ``c0 .. c1 - 1``: the block's post-warmup offered count per
    job, its injections per (cycle, job), and its packets grouped by
    cycle.  The rng consumption order *is* the reference order: a run
    reads ``random((cycles, R))`` and then ``integers(0, R, (cycles,
    R))`` from ``default_rng(seed)``.  Each job reads the first from one
    generator and the second from another advanced past them with
    ``bit_generator.advance(cycles * R)`` — PCG64 spends one output per
    double and, ``R`` being a power of two, one half-output per
    destination with no rejection — so every block of rows is the slice
    of the whole-run draws it stands for.
    """
    R = 1 << n
    B = len(jobs)
    _jmask, _sshift, cstride, _num_q = _qid_layout(n, B)
    rows = np.arange(R)
    # stage-0 queue id of each input row, less the route bit: class = row
    # bit 0, row-rest = the other row bits
    row_qid = (rows & 1) * cstride | (rows & (R - 2))
    rngs = []
    for _rate, seed in jobs:
        dest_rng = np.random.default_rng(seed)
        dest_rng.bit_generator.advance(cycles * R)
        rngs.append((np.random.default_rng(seed), dest_rng))
    step = max(1, _BLOCK_DRAWS // (R * B))
    for c0 in range(0, cycles, step):
        c1 = min(c0 + step, cycles)
        offered = np.zeros(B, np.int64)
        inj_percycle = np.zeros((c1 - c0, B), np.int64)
        parts_t, parts_val, parts_qid = [], [], []
        for j, ((rate, _seed), (rng, dest_rng)) in enumerate(zip(jobs, rngs)):
            inj = rng.random((c1 - c0, R)) < rate
            dests = dest_rng.integers(0, R, size=(c1 - c0, R))
            # flat = ((cycle - c0) << n) | row, row-major: grouped by
            # cycle, then row; dest < R, so (flat ^ dest) + (c0 << n) is
            # the packed (cycle << n) | (row ^ dest)
            flat = np.flatnonzero(inj)
            t_idx = (flat >> n) + c0
            val = (flat ^ dests.ravel()[flat]) + (c0 << n)
            qid = row_qid[flat & (R - 1)]
            qid |= (j << n) | (val & 1)
            parts_t.append(t_idx)
            parts_val.append(val)
            parts_qid.append(qid)
            offered[j] = t_idx.size - np.searchsorted(t_idx, warmup)
            inj_percycle[:, j] = np.count_nonzero(inj, axis=1)
        if B == 1:  # already grouped by cycle
            ival = parts_val[0].astype(pdtype)
            iqid = parts_qid[0]
            itin = parts_t[0]
        else:
            t_all = np.concatenate(parts_t)
            grouped = np.argsort(t_all, kind="stable")  # <= 1 arrival/queue/cycle
            ival = np.concatenate(parts_val)[grouped].astype(pdtype)
            iqid = np.concatenate(parts_qid)[grouped]
            itin = t_all[grouped]
        yield c0, c1, offered, inj_percycle, ival, iqid, itin


@dataclass
class StatsTrace:
    """Per-cycle observability record of one simulation run.

    One row per simulated cycle (measured window *and* drain phase;
    rows at index ``>= measured_cycles`` are drain cycles).
    ``delivered`` counts every packet leaving stage ``n`` that cycle,
    including pre-warmup ones, so ``injected.sum() == delivered.sum() +
    in_flight[-1]`` holds exactly.  ``depth_hist[d]`` is the number of
    (cycle, FIFO) samples with backlog ``d`` — queue-depth occupancy
    aggregated over the whole run.
    """

    cycle: np.ndarray  # cycle index
    injected: np.ndarray  # packets injected this cycle
    delivered: np.ndarray  # packets delivered this cycle (all phases)
    in_flight: np.ndarray  # packets in the network after the cycle
    max_depth: np.ndarray  # deepest single FIFO after the cycle
    depth_hist: np.ndarray  # aggregate backlog histogram over (cycle, FIFO)
    measured_cycles: int  # rows at index >= this are drain cycles

    _COLUMNS = ("cycle", "injected", "delivered", "in_flight", "max_depth")

    def rows(self) -> Iterator[Dict[str, int]]:
        """Per-cycle rows as dicts (CSV column order)."""
        for vals in zip(*(getattr(self, c) for c in self._COLUMNS)):
            yield dict(zip(self._COLUMNS, (int(v) for v in vals)))

    def to_csv(self, path: str) -> str:
        """Write the per-cycle table to ``path``; returns ``path``."""
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=self._COLUMNS)
            w.writeheader()
            w.writerows(self.rows())
        return path

    def to_json(self, path: str) -> str:
        """Write per-cycle arrays plus the depth histogram to ``path``."""
        payload = {c: [int(v) for v in getattr(self, c)] for c in self._COLUMNS}
        payload["depth_hist"] = [int(v) for v in self.depth_hist]
        payload["measured_cycles"] = self.measured_cycles
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return path


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run.

    ``delivered`` counts post-warmup packets landing inside the measured
    window; ``drained`` counts post-warmup packets landing during the
    bounded drain phase (no injections) that follows it.  ``avg_latency``
    averages over both.  ``max_queue`` is the exact peak backlog of any
    single FIFO, tracked on every enqueue.
    """

    n: int
    rate_per_input: float
    cycles: int
    offered: int  # packets injected after warmup
    delivered: int  # post-warmup packets delivered within the window
    avg_latency: float  # cycles from injection to delivery (delivered + drained)
    max_queue: int  # exact largest single-FIFO backlog
    warmup: int = 0
    drained: int = 0  # post-warmup packets delivered during the drain
    drain_cycles: int = 0  # drain cycles actually run (stops when empty)
    in_flight: int = 0  # packets still queued when the run stopped
    trace: Optional[StatsTrace] = field(default=None, repr=False, compare=False)

    @property
    def rows(self) -> int:
        return 1 << self.n

    @property
    def measured_cycles(self) -> int:
        """Cycles in the measured (post-warmup) window."""
        return max(self.cycles - self.warmup, 1)

    @property
    def throughput_per_input(self) -> float:
        """Post-warmup deliveries per input per measured cycle:
        ``delivered / ((cycles - warmup) * R)`` — dividing by all
        ``cycles`` would bias the figure low by ``warmup / cycles``."""
        return self.delivered / (self.measured_cycles * self.rows)

    @property
    def rate_per_node(self) -> float:
        """Offered rate normalised per network node (the paper's figure):
        ``R`` inputs inject into ``N = (n+1) R`` nodes."""
        return self.rate_per_input / (self.n + 1)

    @property
    def delivered_total(self) -> int:
        """Post-warmup deliveries including the drain phase."""
        return self.delivered + self.drained

    @property
    def accepted_fraction(self) -> float:
        """``(delivered + drained) / offered``: in-flight packets given
        the bounded drain to land are not misread as losses."""
        return self.delivered_total / max(self.offered, 1)


def _validate(n: int, rate_per_input: float, cycles: int, warmup: int) -> None:
    if not 0 < rate_per_input <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate_per_input}")
    if n < 1 or cycles < 1:
        raise ValueError("need n >= 1 and cycles >= 1")
    if not 0 <= warmup < cycles:
        # a run with no measured window offers nothing to measure
        raise ValueError(
            f"need 0 <= warmup < cycles (a measured window), got "
            f"warmup={warmup}, cycles={cycles}"
        )


def _run_batch(
    n: int,
    jobs: Sequence[Tuple[float, int]],
    cycles: int,
    warmup: int,
    drain: Optional[int],
    trace: bool = False,
) -> List[SimResult]:
    """Run ``len(jobs)`` independent ``(rate, seed)`` simulations through
    one shared per-link FIFO arbitration loop.

    A FIFO served once per cycle obeys the Lindley recurrence: a packet
    pushed onto queue ``q`` at cycle ``t`` pops at ``p = max(t + 1,
    nf[q])``, after which ``nf[q] = p + 1``.  So each packet's pop cycle
    is fixed when it is enqueued, and the engine keeps no queues at all:
    ``nf`` holds every FIFO's next free pop cycle, and a *calendar* of
    ``W`` rows with one slot per FIFO holds in row ``p % W`` the packets
    that pop at cycle ``p`` (``-1`` marks an empty slot).  A cycle's pops
    are one ``nonzero`` over its row; a push is a gather of ``nf``, a
    ``maximum``, a scatter back and one scatter into the calendar.  The
    backlog right after a push is exactly ``p - t``, so the exact peak
    depth needs no queue state, and a FIFO's backlog at the end of cycle
    ``t`` is ``max(nf[q] - t - 1, 0)``.

    Every FIFO of every job gets a global queue id ``class | stage | job
    | row-rest | out`` (``class`` = bit ``stage`` of the queue's row,
    ``row-rest`` = the remaining row bits; see :func:`_qid_layout`).  A
    packet is one packed integer ``(inject_cycle << n) | (source_row ^
    dest)``: bits of ``row ^ dest`` above the current stage are invariant
    along the route, so the routing bit at stage ``s`` is just bit ``s``
    of the stored value.  With class and stage on top, one
    ``searchsorted`` splits a cycle's sorted pops into the class-0
    movers, the class-0 deliveries, the class-1 movers and the class-1
    deliveries.  The movers go on in two scatter passes split on
    ``class``: the two packets that can collide on one target queue
    always differ in that bit of the source row, and the bit-0 source is
    the lower row, so the two passes reproduce the reference FIFO arrival
    order (cycle, then source row) exactly, with no per-cycle sort.
    Stage-0 targets are disjoint from mover targets, and an input FIFO
    sees at most one injection per cycle, so the cycle's injections are a
    pass of their own.  Jobs never share queues, so batched results are
    bit-identical to running each job alone.  ``trace`` is honoured for
    single-job batches only.

    Injections come from :func:`_injection_blocks` one block of cycles
    at a time, and a single untraced job settles its deliveries in
    passes of about a block's worth, so the loop's memory is the
    calendar plus O(block) whatever ``cycles`` is; only a ``trace``
    grows with the run, by five int64 columns preallocated for ``cycles
    + drain`` rows and filled in place (40 bytes a cycle).
    """
    for rate, _seed in jobs:
        _validate(n, rate, cycles, warmup)
    if drain is None:
        drain = _default_drain(n)
    R = 1 << n
    B = len(jobs)
    total_cycles = cycles + drain
    jmask, sshift, cstride, num_q = _qid_layout(n, B)
    # one packed int per packet: (inject_cycle << n) | (source_row ^ dest)
    pdtype = _packet_dtype(n, cycles, drain)

    # -- per-queue lookup tables (qid -> next hop) -----------------------
    c_t, rest = np.divmod(np.arange(num_q, dtype=np.int64), cstride)
    s_t = rest >> sshift
    j_t = (rest >> n) & jmask
    rr_t = (rest >> 1) & ((R >> 1) - 1)
    row_t = (rr_t & ((1 << s_t) - 1)) | (c_t << s_t) | ((rr_t >> s_t) << (s_t + 1))
    nrow_t = row_t ^ ((rest & 1) << s_t)
    s2 = s_t + 1
    nrest_t = (nrow_t & ((1 << s2) - 1)) | ((nrow_t >> (s2 + 1)) << s2)
    # the class digit is added, not or-ed: cstride shares bits with the
    # stage field unless n is a power of two.  A final-stage id gets a
    # meaningless entry; its pops are deliveries
    q_nbase = (((nrow_t >> s2) & 1) * cstride + (s2 << sshift)) | (
        (j_t << n) | (nrest_t << 1)
    )
    q_nshift = s2.astype(pdtype)  # routing bit of the next stage
    # sorted pops split at: first class-0 final-stage id, first class-1
    # id, first class-1 final-stage id
    bounds = np.array(
        [(n - 1) << sshift, cstride, cstride + ((n - 1) << sshift)], np.int64
    )

    # -- injections, drawn one block of cycles at a time -----------------
    blocks = _injection_blocks(n, jobs, cycles, warmup, pdtype)
    offered = np.zeros(B, np.int64)
    c0 = c1 = 0  # cycles of the current block

    # -- pop-time calendar: W rows of num_q slots, row p % W pops at p ---
    # W starts small and doubles as backlogs grow (they stay near 10 under
    # uniform traffic), so every run takes the growth path early
    W = 4
    cal = np.full(W * num_q, -1, pdtype)  # flat (W, num_q)
    nf = np.zeros(num_q, np.int64)  # next free pop cycle per FIFO
    solo = B == 1 and not trace  # scalar accounting fast path
    qpeak = None if solo else np.zeros(num_q, np.int64)  # per-FIFO peak
    peak_seen = 0  # running global peak, drives calendar growth

    inflight = np.zeros(B, np.int64)
    total_inflight = 0
    delivered = np.zeros(B, np.int64)
    drained = np.zeros(B, np.int64)
    latency = np.zeros(B, np.float64)  # integer-valued; exact below 2**53
    drain_cycles = np.zeros(B, np.int64)

    do_trace = trace and B == 1
    # trace columns (cycle, injected, delivered, in_flight, max_depth),
    # one row per cycle that runs, filled in place
    tr = np.zeros((5, total_cycles if do_trace else 0), np.int64)
    tr_n = 0
    hist = np.zeros(1, np.int64)
    # solo fast path: deliveries are stashed per cycle and settled in
    # vectorized passes of about a block's worth (fin_t holds each
    # chunk's t); latency sums stay exact Python ints until the end
    fin_vals: List[np.ndarray] = []
    fin_t: List[int] = []
    fin_size = 0
    fin_latency = 0

    def settle() -> None:
        nonlocal fin_size, fin_latency
        allv = np.concatenate(fin_vals)
        tins = allv >> n
        counts = np.array([len(v) for v in fin_vals], np.int64)
        t_arr = np.repeat(np.array(fin_t, np.int64), counts)
        post = tins >= warmup
        in_window = int(np.count_nonzero(post & (t_arr < cycles)))
        delivered[0] += in_window
        drained[0] += int(np.count_nonzero(post)) - in_window
        fin_latency += int(((t_arr + 1) - tins)[post].sum())
        fin_vals.clear()
        fin_t.clear()
        fin_size = 0

    def grow() -> None:
        # the W pending rows are cycles t .. t + W - 1: re-file each at
        # its row of a calendar twice as long
        nonlocal W, cal
        pend = t + np.arange(W)
        big = np.full((2 * W, num_q), -1, pdtype)
        big[pend & (2 * W - 1)] = cal.reshape(W, num_q)[pend & (W - 1)]
        cal, W = big.reshape(-1), 2 * W

    def push(qc: np.ndarray, vc: np.ndarray) -> None:
        # targets are unique within one call
        nonlocal peak_seen
        p = nf[qc]
        np.maximum(p, t + 1, out=p)
        nf[qc] = p + 1
        # the backlog right after the push is p - t
        pk = int(p.max()) - t
        if pk > peak_seen:
            peak_seen = pk
        if qpeak is not None:
            qpeak[qc] = np.maximum(qpeak[qc], p - t)
        p &= W - 1
        p *= num_q
        p += qc
        cal[p] = vc

    for t in range(total_cycles):
        if t >= cycles:
            if total_inflight == 0:
                break
            drain_cycles += inflight > 0
        if peak_seen + 2 >= W:  # a push lands at most peak + 2 rows ahead
            grow()
        r0 = (t & (W - 1)) * num_q
        row = cal[r0 : r0 + num_q]
        act = (row >= 0).nonzero()[0]  # method call: skips wrappers
        cyc_delivered = 0
        if act.size:
            pval = row[act]
            row.fill(-1)
            # [0, ea) class-0 movers, [ea, eb) class-0 deliveries,
            # [eb, ec) class-1 movers, [ec, :) class-1 deliveries
            ea, eb, ec = act.searchsorted(bounds).tolist()
            cyc_delivered = eb - ea + act.size - ec
            if cyc_delivered:
                total_inflight -= cyc_delivered
                dval = np.concatenate((pval[ea:eb], pval[ec:]))
                if solo:
                    # defer the latency/warmup arithmetic: stash the
                    # popped values and settle them in bulk
                    inflight[0] -= cyc_delivered
                    fin_vals.append(dval)
                    fin_t.append(t)
                    fin_size += cyc_delivered
                    if fin_size >= _BLOCK_DRAWS:
                        settle()
                else:
                    done_tin = dval >> n
                    counted = (
                        slice(None) if int(done_tin.min()) >= warmup
                        else done_tin >= warmup
                    )
                    tin_c = done_tin[counted]
                    jd = (np.concatenate((act[ea:eb], act[ec:])) >> n) & jmask
                    inflight -= np.bincount(jd, minlength=B)
                    if tin_c.size:
                        jdc = jd[counted]
                        latency += np.bincount(
                            jdc, weights=t + 1 - tin_c, minlength=B
                        )
                        bump = np.bincount(jdc, minlength=B)
                        if t < cycles:
                            delivered += bump
                        else:
                            drained += bump
            if ea or ec > eb:
                nq = q_nbase[act]
                nq |= (pval >> q_nshift[act]) & 1
                if ea:
                    push(nq[:ea], pval[:ea])
                if ec > eb:
                    push(nq[eb:ec], pval[eb:ec])
        cyc_injected = 0
        if t < cycles:
            if t == c1:
                c0, c1, block_offered, inj_percycle, ival, iqid, itin = next(blocks)
                offered += block_offered
                inj_off = np.searchsorted(itin, np.arange(c0, c1 + 1)).tolist()
            a, b = inj_off[t - c0], inj_off[t - c0 + 1]
            if b > a:
                cyc_injected = b - a
                total_inflight += cyc_injected
                push(iqid[a:b], ival[a:b])
                if solo:
                    inflight[0] += cyc_injected
                else:
                    inflight += inj_percycle[t - c0]
        if do_trace:
            depth_all = nf - (t + 1)
            np.maximum(depth_all, 0, out=depth_all)
            tr[:, t] = (t, cyc_injected, cyc_delivered, total_inflight,
                        depth_all.max())
            tr_n = t + 1
            h = np.bincount(depth_all)
            if h.size > hist.size:
                hist = np.pad(hist, (0, h.size - hist.size))
            hist[: h.size] += h

    if solo:
        maxq = np.array([peak_seen], np.int64)
        if fin_vals:
            settle()
        latency[0] = float(fin_latency)
    else:
        maxq = qpeak.reshape(2 * n, jmask + 1, R).max(axis=(0, 2))[:B]

    # the rows of the cycles that ran: the drain stops once the net is empty
    trace_rec = StatsTrace(
        *tr[:, :tr_n], depth_hist=hist, measured_cycles=cycles,
    ) if do_trace else None
    results = []
    for j, (rate, _seed) in enumerate(jobs):
        completed = int(delivered[j] + drained[j])
        results.append(
            SimResult(
                n=n,
                rate_per_input=rate,
                cycles=cycles,
                offered=int(offered[j]),
                delivered=int(delivered[j]),
                avg_latency=float(latency[j]) / completed if completed else float("inf"),
                max_queue=int(maxq[j]),
                warmup=warmup,
                drained=int(drained[j]),
                drain_cycles=int(drain_cycles[j]),
                in_flight=int(inflight[j]),
                trace=trace_rec,
            )
        )
    return results


def simulate_butterfly_queued(
    n: int,
    rate_per_input: float,
    cycles: int = 2000,
    warmup: int = 200,
    seed: int = 0,
    drain: Optional[int] = None,
    trace: bool = False,
) -> SimResult:
    """Simulate Bernoulli(``rate_per_input``) arrivals per input per cycle
    with uniform random destinations — vectorized engine.

    Each packet's pop cycle is fixed when it is enqueued (a FIFO served
    once per cycle obeys the Lindley recurrence), so the engine files
    packets in a pop-time calendar instead of keeping queues: each cycle
    pops one calendar row at once and a two-pass collision-free scatter
    files the packets under their next hop (reproducing the reference
    enqueue order — cycle, then source row — exactly, so results match
    the pure-Python reference loop packet-for-packet).  After
    the measured window, up to ``drain`` extra cycles (default
    ``4 * (n + 1)``) run without injections so in-flight packets are not
    misread as losses.  With ``trace=True`` the result carries a
    per-cycle :class:`StatsTrace`.
    """
    return _run_batch(
        n, [(rate_per_input, seed)], cycles, warmup, drain, trace=trace,
    )[0]


def _sweep_chunk(args: Tuple) -> List[SimResult]:
    """Module-level worker so :func:`sweep_rates` chunks pickle cleanly."""
    n, jobs, cycles, warmup, drain = args
    return _run_batch(n, jobs, cycles, warmup, drain)


def sweep_rates(
    n: int,
    rates: Sequence[float],
    *,
    cycles: int = 1500,
    warmup: int = 200,
    seeds: Sequence[int] = (0,),
    drain: Optional[int] = None,
    workers: Optional[int] = None,
    batch: int = 16,
) -> List[SimResult]:
    """Run the engine over the ``rates x seeds`` grid.

    Results come back rate-major (all seeds of ``rates[0]`` first).
    Jobs are independent seeded simulations on disjoint queues, so they
    are *batched* through one shared arbitration loop ``batch`` jobs at
    a time — each vectorized cycle serves the whole batch — and with
    ``workers > 1`` the batches are additionally farmed out to a
    :mod:`multiprocessing` pool.  Each worker is handed only its
    chunk's ``(n, jobs, cycles, warmup, drain)`` and draws its own
    injections block by block.  The grouping never changes the numbers:
    every grouping is bit-identical to running each job alone.
    """
    jobs = [(float(rate), int(s)) for rate in rates for s in seeds]
    for rate, _seed in jobs:
        _validate(n, rate, cycles, warmup)
    batch = max(1, batch)
    payloads = [
        (n, jobs[i : i + batch], cycles, warmup, drain)
        for i in range(0, len(jobs), batch)
    ]
    if workers and workers > 1 and len(payloads) > 1:
        with multiprocessing.get_context().Pool(min(workers, len(payloads))) as pool:
            parts = pool.map(_sweep_chunk, payloads)
    else:
        parts = [_sweep_chunk(p) for p in payloads]
    return [res for part in parts for res in part]


def saturation_per_node_rate(
    n: int,
    cycles: int = 1500,
    threshold: float = 0.95,
    seed: int = 0,
    drain: Optional[int] = None,
) -> float:
    """Largest tested per-node rate whose accepted fraction stays within
    ``threshold`` of offered load (bisection over per-input rates).

    Both bracket ends are probed before bisecting.  The floor (per-input
    0.1): if even that saturates, the network has no feasible tested
    rate and the function returns 0.0 instead of misreporting the floor
    as a saturation point.  The ceiling (per-input 1.0): if the network
    stays unsaturated at full injection, the answer is the full rate
    ``1.0 / (n + 1)`` itself — bisecting would converge to ~0.986 of it
    and misreport an arbitrary bracket edge as a saturation point.

    Every probe warms up for 200 cycles, or for ``cycles // 10`` when
    ``cycles <= 200``: a warmup of the whole run would offer no measured
    packet, so every probe would read as saturated.
    """
    lo, hi = 0.1, 1.0
    warmup = cycles // 10 if cycles <= 200 else 200

    def accepted(rate: float) -> float:
        return simulate_butterfly_queued(
            n, rate, cycles=cycles, warmup=warmup, seed=seed, drain=drain
        ).accepted_fraction

    if accepted(lo) < threshold:
        return 0.0
    if accepted(hi) >= threshold:
        # unsaturated at full per-input rate: the ceiling is the answer
        return hi / (n + 1)
    best = lo
    for _ in range(6):
        mid = (lo + hi) / 2
        if accepted(mid) >= threshold:
            best, lo = mid, mid
        else:
            hi = mid
    return best / (n + 1)
