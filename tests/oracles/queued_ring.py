"""The ring-buffer queued-routing engine, kept as an exact reference.

:func:`_run_batch` is the engine :mod:`repro.algorithms.queued_routing`
shipped before its pop-time calendar: every FIFO is a ring-buffer row of
one flat array with monotone head/tail cursors, and the queue id packs
``stage | classbit | job | row-rest | out``.  It is moved here verbatim,
together with the two helpers it calls, :func:`_qid_layout` and
:func:`_prepare_injections`.  Unlike the triple loop in
:mod:`tests.oracles.queued_routing`, it tracks the exact ``max_queue``,
records a :class:`~repro.algorithms.queued_routing.StatsTrace` and runs
batches, so it pins every field the calendar engine produces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.queued_routing import (
    SimResult,
    StatsTrace,
    _default_drain,
    _packet_dtype,
    _validate,
)


def _qid_layout(n: int, B: int) -> Tuple[int, int, int, int]:
    """Global queue-id layout for a ``B``-job batch on ``B_n``.

    Returns ``(jb, jmask, sshift, num_q)`` for the id packing ``stage |
    classbit | job | row-rest | out`` shared by the engine, the
    injection precompute, and the shared-memory sweep workers.
    """
    jb = max((B - 1).bit_length(), 0)
    jmask = (1 << jb) - 1
    sshift = jb + n + 1
    return jb, jmask, sshift, n << sshift


def _prepare_injections(
    n: int,
    jobs: Sequence[Tuple[float, int]],
    cycles: int,
    warmup: int,
    pdtype,
) -> Tuple[np.ndarray, ...]:
    """Precompute every injection of every job, grouped by cycle.

    Returns ``(offered, inj_percycle, ival, iqid, itin)`` — exactly the
    arrays :func:`_run_batch` consumes.  Factored out of the engine so
    the serial path and the shared-memory sweep workers prepare (or
    attach) byte-identical arrays: the rng consumption order here *is*
    the reference order.
    """
    R = 1 << n
    B = len(jobs)
    _jb, _jmask, sshift, _num_q = _qid_layout(n, B)
    offered = np.zeros(B, np.int64)
    inj_percycle = np.zeros((cycles, B), np.int64)
    parts_t, parts_val, parts_qid = [], [], []
    for j, (rate, seed) in enumerate(jobs):
        rng = np.random.default_rng(seed)
        inj = rng.random((cycles, R)) < rate
        dests = rng.integers(0, R, size=(cycles, R))
        t_idx, r_idx = np.nonzero(inj)
        t_idx = t_idx.astype(np.int64)
        r_idx = r_idx.astype(np.int64)
        d = dests[t_idx, r_idx].astype(np.int64)
        parts_t.append(t_idx)
        parts_val.append((t_idx << n) | (r_idx ^ d))
        parts_qid.append(
            ((r_idx & 1) << (sshift - 1))  # stage 0: class bit = row bit 0
            | (np.int64(j) << n)
            | ((r_idx >> 1) << 1)
            | ((r_idx ^ d) & 1)
        )
        offered[j] = np.count_nonzero(t_idx >= warmup)
        inj_percycle[:, j] = np.bincount(t_idx, minlength=cycles)
    if B == 1:  # np.nonzero is row-major: already grouped by cycle
        ival = parts_val[0].astype(pdtype)
        iqid = parts_qid[0]
        itin = parts_t[0]
    else:
        t_all = np.concatenate(parts_t)
        grouped = np.argsort(t_all, kind="stable")  # <= 1 arrival/queue/cycle
        ival = np.concatenate(parts_val)[grouped].astype(pdtype)
        iqid = np.concatenate(parts_qid)[grouped]
        itin = t_all[grouped]
    return offered, inj_percycle, ival, iqid, itin


def _run_batch(
    n: int,
    jobs: Sequence[Tuple[float, int]],
    cycles: int,
    warmup: int,
    drain: Optional[int],
    trace: bool = False,
    injections: Optional[Tuple[np.ndarray, ...]] = None,
) -> List[SimResult]:
    """Run ``len(jobs)`` independent ``(rate, seed)`` simulations through
    one shared per-link FIFO arbitration loop.

    Every FIFO of every job gets a global queue id ``stage | classbit |
    job | row-rest | out`` (``classbit`` = bit ``stage`` of the queue's
    row, ``row-rest`` = the remaining row bits) and lives as a
    ring-buffer row of one flat array with monotone head/tail counters.
    A packet is one packed integer ``(inject_cycle << n) | (source_row ^
    dest)``: bits of ``row ^ dest`` above the current stage are
    invariant along the route, so the routing bit at stage ``s`` is just
    bit ``s`` of the stored value.  Each cycle pops every nonempty
    queue's head at once — with stage in the top id bits the sorted
    active-queue list splits into movers and final-stage deliveries with
    a single ``searchsorted`` — and scatters the movers to their target
    queues in two passes split on ``classbit``: the two packets that can
    collide on one target queue always differ in that bit of the source
    row, and the bit-0 source is the lower row, so the two passes
    reproduce the reference FIFO arrival order (cycle, then source row)
    exactly, with no per-cycle sort.  The cycle's injections ride in the
    first pass (stage-0 targets are disjoint from mover targets).  Jobs
    never share queues, so batched results are bit-identical to running
    each job alone.  ``trace`` is honoured for single-job batches only.
    """
    for rate, _seed in jobs:
        _validate(n, rate, cycles, warmup)
    if drain is None:
        drain = _default_drain(n)
    R = 1 << n
    B = len(jobs)
    total_cycles = cycles + drain
    # stage | classbit | job | row-rest | out
    jb, jmask, sshift, num_q = _qid_layout(n, B)
    final_floor = (n - 1) << sshift
    # one packed int per packet: (inject_cycle << n) | (source_row ^ dest).
    # row ^ dest above bit s is invariant along the route (bits below s are
    # already corrected), so the routing decision at stage s+1 is just bit
    # s+1 of the stored value — no current-row lookup needed.
    pdtype = _packet_dtype(n, cycles, drain)

    # -- per-queue lookup tables (qid -> movement precomputation) --------
    # queue id layout: stage s on top, then bit s of the queue's row (the
    # scatter-pass class, making each pass a run of sorted id ranges),
    # then job, then the remaining row bits, then the output link.
    ids = np.arange(num_q, dtype=np.int64)
    s_t = ids >> sshift
    sb_t = (ids >> (sshift - 1)) & 1
    j_t = (ids >> n) & jmask
    rr_t = (ids >> 1) & ((R >> 1) - 1)
    o_t = ids & 1
    row_t = (rr_t & ((1 << s_t) - 1)) | (sb_t << s_t) | ((rr_t >> s_t) << (s_t + 1))
    nrow_t = row_t ^ (o_t << s_t)
    s2 = s_t + 1
    nsb_t = (nrow_t >> s2) & 1
    nrest_t = (nrow_t & ((1 << s2) - 1)) | ((nrow_t >> (s2 + 1)) << s2)
    q_nbase = (s2 << sshift) | (nsb_t << (sshift - 1)) | (j_t << n) | (nrest_t << 1)
    # movers of stage s split into scatter passes at these sorted-id cuts;
    # the final entry is the first final-stage id, so one searchsorted
    # over ``act`` yields the class cuts *and* the delivery cut
    half = 1 << (sshift - 1)
    class_bounds = np.array(
        [(s << sshift) + k * half for s in range(n - 1) for k in (1, 2)]
        + [final_floor],
        dtype=np.int64,
    )
    # routing-bit position per queue (bit s+1 of the packed value); a
    # single gathered variable-shift beats the per-stage scalar-slice
    # loop once there are more than a few stages
    q_nshift = s2.astype(np.int32) if n > 4 else None

    # -- every injection of every job, grouped by cycle ------------------
    # either prepared here, or attached as shared-memory views by a
    # sweep worker (see sweep_rates) — same arrays either way
    if injections is None:
        injections = _prepare_injections(n, jobs, cycles, warmup, pdtype)
    offered, inj_percycle, ival, iqid, itin = injections
    offered = offered.copy()  # result field; never mutate a shared view
    inj_off = np.searchsorted(itin, np.arange(cycles + 1))

    # -- ring buffers: one row per FIFO, head/tail monotone counters -----
    depth_cap = 16
    buf = np.zeros(num_q * depth_cap, pdtype)  # flat (num_q, depth_cap)
    # head/tail/qpeak count pops/arrivals per queue: <= 2 per cycle, so
    # int16 is safe below 2**14 cycles and keeps the hot arrays L2-sized
    cdtype = (
        np.int16 if total_cycles < 2**14
        else np.int32 if total_cycles < 2**30 else np.int64
    )
    head = np.zeros(num_q, cdtype)
    tail = np.zeros(num_q, cdtype)
    solo = B == 1 and not trace  # scalar accounting fast path
    qpeak = None if solo else np.zeros(num_q, cdtype)  # per-FIFO backlog peak
    peak_seen = 0  # running global peak, drives capacity growth

    inflight = np.zeros(B, np.int64)
    total_inflight = 0
    delivered = np.zeros(B, np.int64)
    drained = np.zeros(B, np.int64)
    latency = np.zeros(B, np.float64)  # integer-valued; exact below 2**53
    drain_cycles = np.zeros(B, np.int64)

    do_trace = trace and B == 1
    tr_rows: List[Tuple[int, int, int, int, int]] = []
    hist = np.zeros(1, np.int64)
    # solo fast path: final-stage pops are stashed per cycle and settled
    # in one vectorized pass after the loop (fin_t holds each chunk's t)
    fin_vals: List[np.ndarray] = []
    fin_t: List[int] = []

    def grow() -> None:
        nonlocal depth_cap, buf
        new_cap = depth_cap * 2
        nb = np.zeros(num_q * new_cap, pdtype)
        depth = tail - head
        q_rep = np.repeat(np.arange(num_q), depth)
        ofs = np.arange(int(depth.sum())) - np.repeat(
            np.cumsum(depth) - depth, depth
        )
        nb[q_rep * new_cap + ((head[q_rep] + ofs) & (new_cap - 1))] = buf[
            q_rep * depth_cap + ((head[q_rep] + ofs) & (depth_cap - 1))
        ]
        buf, depth_cap = nb, new_cap

    for t in range(total_cycles):
        if t >= cycles:
            if total_inflight == 0:
                break
            drain_cycles += inflight > 0
        if peak_seen + 2 >= depth_cap:  # <= 2 arrivals per queue per cycle
            grow()
        mask = depth_cap - 1
        dbits = mask.bit_length()
        cyc_delivered = 0
        cut = 0
        cuts: List[int] = []
        act = (head < tail).nonzero()[0]  # method call: skips wrappers
        if act.size:
            # slot math runs in the qid dtype: the head/tail cursors are
            # int16, but queue ids span the whole buffer
            c = head[act]
            pval = buf[(act << dbits) | (c & mask)]
            head[act] = c + 1
            cuts = act.searchsorted(class_bounds).tolist()
            cut = cuts[-1]
            if cut < act.size:  # final-stage pops: deliveries
                cyc_delivered = act.size - cut
                total_inflight -= cyc_delivered
                if solo:
                    # defer the latency/warmup arithmetic: stash the
                    # popped values and settle everything in one
                    # vectorized pass after the loop
                    inflight[0] -= cyc_delivered
                    fin_vals.append(pval[cut:])
                    fin_t.append(t)
                else:
                    done_tin = pval[cut:] >> n
                    counted = (
                        slice(None) if int(done_tin.min()) >= warmup
                        else done_tin >= warmup
                    )
                    tin_c = done_tin[counted]
                    jd = (act[cut:] >> n) & jmask
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
        # arrivals: movers split into the two collision-free scatter
        # passes along the precomputed sorted-id runs; this cycle's
        # injections ride in the first pass (stage-0 targets are disjoint
        # from mover targets, and input FIFOs see <= 1 injection/cycle)
        segs_a: List[np.ndarray] = []
        vals_a: List[np.ndarray] = []
        segs_b: List[np.ndarray] = []
        vals_b: List[np.ndarray] = []
        if cut:
            mq = act[:cut]
            mval = pval[:cut]
            if q_nshift is not None:
                nout = mval >> q_nshift[mq]
            else:
                # act is stage-sorted, so the routing-bit index (stage+1)
                # is constant on each stage run: scalar shifts beat the
                # gather when there are only a few stages
                nout = np.empty_like(mval)
                lo = 0
                for s in range(n - 1):
                    hi = cuts[2 * s + 1]
                    if hi > lo:
                        np.right_shift(mval[lo:hi], s + 1, out=nout[lo:hi])
                    lo = hi
            nout &= 1
            nqid = q_nbase[mq]
            nqid |= nout
            prev = 0
            for i in range(0, len(cuts) - 1, 2):
                ca, cb = cuts[i], cuts[i + 1]
                if ca > prev:
                    segs_a.append(nqid[prev:ca])
                    vals_a.append(mval[prev:ca])
                if cb > ca:
                    segs_b.append(nqid[ca:cb])
                    vals_b.append(mval[ca:cb])
                prev = cb
        cyc_injected = 0
        if t < cycles:
            a, b = int(inj_off[t]), int(inj_off[t + 1])
            if b > a:
                cyc_injected = b - a
                total_inflight += cyc_injected
                segs_a.append(iqid[a:b])
                vals_a.append(ival[a:b])
                if solo:
                    inflight[0] += cyc_injected
                else:
                    inflight += inj_percycle[t]
        touched: List[np.ndarray] = []
        for segs, vals in ((segs_a, vals_a), (segs_b, vals_b)):
            if not segs:
                continue
            qc = segs[0] if len(segs) == 1 else np.concatenate(segs)
            vc = vals[0] if len(vals) == 1 else np.concatenate(vals)
            # targets unique within a pass
            c = tail[qc]
            buf[(qc << dbits) | (c & mask)] = vc
            tail[qc] = c + 1
            touched.append(qc)
        if touched:
            # pops precede pushes, so a FIFO's depth peaks at end of
            # cycle: sampling the touched queues once here is exact
            qt = touched[0] if len(touched) == 1 else np.concatenate(touched)
            dep = tail[qt] - head[qt]
            if not solo:
                qpeak[qt] = np.maximum(qpeak[qt], dep)
            pk = int(dep.max())
            if pk > peak_seen:
                peak_seen = pk
        if do_trace:
            depth_all = tail - head
            tr_rows.append(
                (t, cyc_injected, cyc_delivered, total_inflight,
                 int(depth_all.max()))
            )
            h = np.bincount(depth_all)
            if h.size > hist.size:
                hist = np.pad(hist, (0, h.size - hist.size))
            hist[: h.size] += h

    if solo:
        maxq = np.array([peak_seen], np.int64)
        if fin_vals:
            # settle the deferred final-stage accounting in one pass
            allv = np.concatenate(fin_vals)
            tins = allv >> n
            counts = np.array([len(v) for v in fin_vals], np.int64)
            t_arr = np.repeat(np.array(fin_t, np.int64), counts)
            post = tins >= warmup
            delivered[0] = int(np.count_nonzero(post & (t_arr < cycles)))
            drained[0] = int(np.count_nonzero(post)) - int(delivered[0])
            latency[0] = float(((t_arr + 1) - tins)[post].sum())
    else:
        maxq = qpeak.reshape(n, 2, 1 << jb, R).max(axis=(0, 1, 3))[:B]

    results = []
    for j, (rate, _seed) in enumerate(jobs):
        completed = int(delivered[j] + drained[j])
        tr = None
        if do_trace:
            cols = [np.asarray(c, np.int64) for c in zip(*tr_rows)] if tr_rows else [
                np.empty(0, np.int64)
            ] * 5
            tr = StatsTrace(*cols, depth_hist=hist, measured_cycles=cycles)
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
                trace=tr,
            )
        )
    return results
