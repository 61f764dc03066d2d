"""Tests for the vectorized queued-routing engine and its fixed metrics.

Two reference engines stay in ``tests/oracles``.  The legacy triple-loop
simulator pins the engine packet-for-packet under fixed seeds.  The
ring-buffer engine the pop-time calendar replaced is the exact reference
for what the triple loop does not model: the exact ``max_queue``, the
per-cycle :class:`StatsTrace` and batched runs.
"""

import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import queued_routing
from repro.algorithms.queued_routing import (
    SimResult,
    _default_drain,
    _run_batch,
    saturation_per_node_rate,
    simulate_butterfly_queued,
    sweep_rates,
)

from tests.oracles import queued_ring
from tests.oracles.queued_routing import simulate_butterfly_queued_legacy

_TRACE_ARRAYS = (
    "cycle", "injected", "delivered", "in_flight", "max_depth", "depth_hist",
)

_rates = st.floats(0.0, 1.0, exclude_min=True)
_seeds = st.integers(0, 2**31 - 1)


@st.composite
def _runs(draw):
    """``(n, cycles, warmup, drain)`` of one engine call."""
    n = draw(st.integers(1, 7))
    cycles = draw(st.integers(1, 400))
    warmup = draw(st.integers(0, cycles - 1))
    drain = draw(st.one_of(st.none(), st.integers(0, 8)))
    return n, cycles, warmup, drain


def _assert_same_runs(got, want):
    assert got == want  # every SimResult field; the dataclass skips trace
    for g, w in zip(got, want):
        assert (g.trace is None) == (w.trace is None)
        if g.trace is not None:
            for name in _TRACE_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(g.trace, name), getattr(w.trace, name), name
                )
            assert g.trace.measured_cycles == w.trace.measured_cycles


class TestDifferential:
    """Vectorized engine vs. the legacy reference loop, same seeds."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rate", [0.2, 0.6, 0.95])
    def test_matches_legacy_packet_for_packet(self, n, rate):
        vec = simulate_butterfly_queued(n, rate, cycles=300, warmup=40, seed=3)
        ref = simulate_butterfly_queued_legacy(
            n, rate, cycles=300, warmup=40, seed=3
        )
        assert vec.offered == ref.offered
        assert vec.delivered == ref.delivered
        assert vec.drained == ref.drained
        assert vec.in_flight == ref.in_flight
        assert vec.drain_cycles == ref.drain_cycles
        assert vec.avg_latency == pytest.approx(ref.avg_latency, abs=1e-12)

    def test_exact_max_queue_dominates_legacy_sampling(self):
        """The legacy loop samples depths every 64 cycles; the engine
        tracks every enqueue, so its peak is never smaller and is
        strictly larger whenever the true peak falls between samples."""
        pairs = []
        for seed in range(6):
            vec = simulate_butterfly_queued(
                4, 0.95, cycles=300, warmup=0, seed=seed
            )
            ref = simulate_butterfly_queued_legacy(
                4, 0.95, cycles=300, warmup=0, seed=seed
            )
            assert vec.max_queue >= ref.max_queue
            pairs.append((vec.max_queue, ref.max_queue))
        assert any(v > r for v, r in pairs)

    def test_max_queue_agrees_with_trace(self):
        r = simulate_butterfly_queued(4, 0.9, cycles=400, seed=2, trace=True)
        assert r.max_queue == int(r.trace.max_depth.max())


class TestCalendarMatchesRing:
    """The pop-time calendar vs. the ring-buffer engine it replaced:
    every result field, every trace array and every sweep grouping."""

    @settings(max_examples=120, deadline=None)
    @given(
        run=_runs(),
        jobs=st.lists(st.tuples(_rates, _seeds), min_size=1, max_size=5),
        trace=st.booleans(),
    )
    # full-rate runs: backlogs of 6-8 make the calendar grow twice
    @example(run=(6, 400, 50, None), jobs=[(1.0, 1), (0.97, 2)], trace=False)
    @example(run=(5, 400, 0, 8), jobs=[(1.0, 3)], trace=True)
    def test_batches_and_traces(self, run, jobs, trace):
        n, cycles, warmup, drain = run
        _assert_same_runs(
            _run_batch(n, jobs, cycles, warmup, drain, trace=trace),
            queued_ring._run_batch(n, jobs, cycles, warmup, drain, trace=trace),
        )

    @settings(max_examples=12, deadline=None)
    @given(
        run=_runs(),
        rates=st.lists(_rates, min_size=1, max_size=3),
        seeds=st.lists(_seeds, min_size=1, max_size=2),
    )
    def test_sweep_groupings(self, run, rates, seeds):
        n, cycles, warmup, drain = run
        want = [
            queued_ring._run_batch(n, [(r, s)], cycles, warmup, drain)[0]
            for r in rates
            for s in seeds
        ]
        for batch in (1, 3, 16):
            for workers in (None, 2):
                got = sweep_rates(
                    n, rates, cycles=cycles, warmup=warmup, seeds=seeds,
                    drain=drain, workers=workers, batch=batch,
                )
                assert got == want, (batch, workers)


class TestCalendarMatchesRingOneCycleBlocks:
    """:class:`TestCalendarMatchesRing`'s properties again with one-cycle
    injection blocks: most drawn runs fit one block at the default size,
    so here every cycle starts a block of its own."""

    @pytest.fixture(autouse=True)
    def _one_cycle_blocks(self, monkeypatch):
        monkeypatch.setattr(queued_routing, "_BLOCK_DRAWS", 1)

    @settings(max_examples=120, deadline=None)
    @given(
        run=_runs(),
        jobs=st.lists(st.tuples(_rates, _seeds), min_size=1, max_size=5),
        trace=st.booleans(),
    )
    def test_batches_and_traces(self, run, jobs, trace):
        TestCalendarMatchesRing.test_batches_and_traces.hypothesis.inner_test(
            self, run, jobs, trace
        )

    @settings(max_examples=12, deadline=None)
    @given(
        run=_runs(),
        rates=st.lists(_rates, min_size=1, max_size=3),
        seeds=st.lists(_seeds, min_size=1, max_size=2),
    )
    def test_sweep_groupings(self, run, rates, seeds):
        TestCalendarMatchesRing.test_sweep_groupings.hypothesis.inner_test(
            self, run, rates, seeds
        )


class TestInjectionBlocks:
    """Runs of many blocks, and the rng split the blocks rely on."""

    @pytest.mark.parametrize("n, jobs, cycles, warmup, drain, trace", [
        (8, [(0.9, 11), (0.5, 12)], 1500, 150, None, False),
        (9, [(0.3, 21), (0.95, 22), (1.0, 23)], 1000, 100, 5, False),
        # one job: untraced, its deliveries settle in several passes
        (10, [(0.9, 31)], 700, 70, None, False),
        (10, [(1.0, 32)], 700, 0, 0, True),
    ])
    def test_multi_block_runs_match_ring(self, n, jobs, cycles, warmup, drain, trace):
        step = max(1, queued_routing._BLOCK_DRAWS // ((1 << n) * len(jobs)))
        assert cycles > 5 * step  # several blocks
        _assert_same_runs(
            _run_batch(n, jobs, cycles, warmup, drain, trace=trace),
            queued_ring._run_batch(n, jobs, cycles, warmup, drain, trace=trace),
        )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_split_draws_equal_whole_run_draws(self, n):
        """A block of rows from two generators — the second advanced
        past the run's doubles — equals the matching rows of
        ``random((cycles, R))`` then ``integers(0, R, (cycles, R))``
        drawn from one.  A numpy that spends the stream differently
        fails here instead of silently changing every answer."""
        R, cycles, seed = 1 << n, 7, 1000 + n
        whole = np.random.default_rng(seed)
        want_u = whole.random((cycles, R))
        want_d = whole.integers(0, R, size=(cycles, R))
        for block in (1, 3, cycles):
            rng = np.random.default_rng(seed)
            dest_rng = np.random.default_rng(seed)
            dest_rng.bit_generator.advance(cycles * R)
            spans = [min(block, cycles - c0) for c0 in range(0, cycles, block)]
            got_u = np.concatenate([rng.random((k, R)) for k in spans])
            got_d = np.concatenate(
                [dest_rng.integers(0, R, size=(k, R)) for k in spans]
            )
            np.testing.assert_array_equal(got_u, want_u)
            np.testing.assert_array_equal(got_d, want_d)


def _peak_mib(fn) -> float:
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemory:
    """Injections are drawn one block at a time, so the sim's peak
    allocation does not grow with ``cycles``.  Drawing the whole run up
    front peaked at 53 MiB at 1,000 cycles and 203 MiB at 4,000 (numpy
    2.4, x86-64)."""

    def test_solo_peak_flat_in_cycles(self):
        short, long_ = (
            _peak_mib(lambda: simulate_butterfly_queued(10, 0.9, cycles=c))
            for c in (1000, 4000)
        )
        assert long_ <= 1.2 * short, (short, long_)
        assert long_ < 16, long_

    def test_batch_peak_flat_in_cycles(self):
        jobs = [(0.3, 0), (0.9, 1), (1.0, 2)]
        short, long_ = (
            _peak_mib(lambda: _run_batch(10, jobs, c, 100, None))
            for c in (250, 1000)
        )
        assert long_ <= 1.2 * short, (short, long_)

    def test_trace_costs_its_columns_only(self, monkeypatch):
        """A trace is five int64 columns filled in place, so the traced
        peak exceeds the untraced one by at most 48 bytes per simulated
        cycle; one Python tuple per cycle cost ~220.  Blocks of 64 draws
        keep the untraced run's delivery stash and injection buffers
        small, so the difference is the trace itself."""
        monkeypatch.setattr(queued_routing, "_BLOCK_DRAWS", 64)
        cycles = 1000

        def run(trace, c=cycles):
            return simulate_butterfly_queued(
                3, 0.5, cycles=c, warmup=100, seed=1, trace=trace
            )

        run(False, 150), run(True, 150)  # one-time allocations
        plain, traced = (_peak_mib(lambda: run(t)) for t in (False, True))
        assert (traced - plain) * 2**20 <= 48 * cycles, (plain, traced)


class TestMetrics:
    def test_throughput_uses_measured_window(self):
        """Satellite 1: divide by (cycles - warmup) * rows, not cycles."""
        r = SimResult(
            n=3, rate_per_input=0.5, cycles=1000, offered=3200,
            delivered=3200, avg_latency=4.0, max_queue=2, warmup=200,
        )
        assert r.measured_cycles == 800
        assert r.throughput_per_input == pytest.approx(3200 / (800 * 8))
        # the old definition (divide by all cycles) would be biased low
        assert r.throughput_per_input > 3200 / (1000 * 8)

    def test_throughput_tracks_offered_rate_at_low_load(self):
        """With warmup excluded, measured throughput ~ offered rate even
        when warmup is a large slice of the run."""
        r = simulate_butterfly_queued(4, 0.4, cycles=600, warmup=300, seed=5)
        assert r.warmup == 300
        assert r.throughput_per_input == pytest.approx(0.4, rel=0.15)

    def test_drain_phase_recovers_in_flight_packets(self):
        """Satellite 3: accepted_fraction gets a bounded drain phase so
        packets still in the network at cutoff are not counted as lost."""
        undrained = simulate_butterfly_queued(
            4, 0.9, cycles=120, warmup=20, seed=1, drain=0
        )
        drained = simulate_butterfly_queued(
            4, 0.9, cycles=120, warmup=20, seed=1
        )
        assert undrained.in_flight > 0
        assert drained.drained > 0
        assert drained.accepted_fraction > undrained.accepted_fraction
        assert drained.accepted_fraction > 0.97
        # the drain is bounded and stops early once the network is empty
        assert drained.drain_cycles <= _default_drain(4)

    def test_conservation(self):
        r = simulate_butterfly_queued(5, 0.8, cycles=400, warmup=50, seed=9)
        assert r.offered == r.delivered + r.drained + r.in_flight


class TestSaturation:
    def test_floor_probe_returns_zero_when_unreachable(self):
        """Satellite 2: if even the 0.1 bracket floor fails the
        acceptance threshold, report 0.0 instead of the floor itself."""
        assert saturation_per_node_rate(3, cycles=300, threshold=1.5) == 0.0

    def test_short_runs_measure_a_window(self):
        """Every probe used to warm up for 200 cycles whatever ``cycles``
        was, so a run of <= 200 cycles offered no measured packet and
        read as saturated (0.0) at the 0.1 floor."""
        assert saturation_per_node_rate(3, cycles=120) == 0.25
        assert saturation_per_node_rate(3, cycles=120) == (
            saturation_per_node_rate(3, cycles=300)
        )

    def test_normal_threshold_finds_positive_rate(self):
        assert saturation_per_node_rate(3, cycles=400) > 0.0

    def test_unsaturated_ceiling_reports_full_rate(self):
        """A config that never saturates must report the bracket ceiling
        (rate 1.0) exactly, not the bisection's asymptote just below it.

        Regression: n=1 at threshold 0.5 used to return 0.49296875
        (= 0.9859.../2) because the search only ever narrowed towards
        hi=1.0 without probing it; the true answer is 1.0/(n+1) = 0.5.
        """
        assert saturation_per_node_rate(1, cycles=400, threshold=0.5) == 0.5
        sat = saturation_per_node_rate(2, cycles=400, threshold=0.5)
        assert sat * 3 == 1.0  # exactly hi/(n+1), no bisection artifact

    def test_scales_like_inverse_n_plus_one(self):
        """Satellite 5 property: per-node saturation rate decays roughly
        like 1/(n+1) (the paper's queueing wall) for n = 3..6."""
        sats = {n: saturation_per_node_rate(n, cycles=700) for n in range(3, 7)}
        for n in range(3, 6):
            assert sats[n] > sats[n + 1]  # monotone decay
        for n, s in sats.items():
            assert s * (n + 1) == pytest.approx(1.0, rel=0.2)


class TestSweep:
    def test_grid_shape_and_order(self):
        res = sweep_rates(3, [0.3, 0.7], cycles=200, warmup=20,
                          seeds=(0, 1), batch=4)
        assert [(r.rate_per_input, r.n) for r in res] == [
            (0.3, 3), (0.3, 3), (0.7, 3), (0.7, 3)
        ]

    def test_batching_never_changes_results(self):
        """Batched arbitration is bit-identical to running jobs alone."""
        rates = [0.2, 0.5, 0.8, 0.95]
        solo = [
            simulate_butterfly_queued(3, r, cycles=250, warmup=30, seed=s)
            for r in rates
            for s in (0, 4)
        ]
        batched = sweep_rates(
            3, rates, cycles=250, warmup=30, seeds=(0, 4), batch=3
        )
        assert batched == solo  # frozen dataclass equality, trace excluded

    def test_worker_pool_matches_serial(self):
        kw = dict(cycles=200, warmup=20, batch=1)
        serial = sweep_rates(3, [0.3, 0.6, 0.9], **kw)
        pooled = sweep_rates(3, [0.3, 0.6, 0.9], workers=2, **kw)
        assert pooled == serial


class TestStatsTrace:
    def test_trace_does_not_perturb_results(self):
        plain = simulate_butterfly_queued(3, 0.8, cycles=300, seed=6)
        traced = simulate_butterfly_queued(3, 0.8, cycles=300, seed=6, trace=True)
        assert traced == plain  # trace field excluded from comparison
        assert traced.trace is not None

    def test_trace_conservation_and_shape(self):
        r = simulate_butterfly_queued(3, 0.8, cycles=300, warmup=40, seed=6, trace=True)
        tr = r.trace
        rows = 300 + r.drain_cycles
        for col in tr._COLUMNS:
            assert len(getattr(tr, col)) == rows
        assert tr.measured_cycles == 300
        assert int(tr.injected.sum()) == int(tr.delivered.sum()) + int(tr.in_flight[-1])
        assert int(tr.injected[300:].sum()) == 0  # no injections while draining

    def test_csv_export(self, tmp_path):
        r = simulate_butterfly_queued(3, 0.7, cycles=150, warmup=30, seed=2,
                                      trace=True)
        path = r.trace.to_csv(str(tmp_path / "trace.csv"))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150 + r.drain_cycles
        assert set(rows[0]) == set(r.trace._COLUMNS)
        assert sum(int(row["delivered"]) for row in rows) == int(
            r.trace.delivered.sum()
        )

    def test_json_export(self, tmp_path):
        r = simulate_butterfly_queued(3, 0.7, cycles=150, warmup=30, seed=2,
                                      trace=True)
        path = r.trace.to_json(str(tmp_path / "trace.json"))
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["measured_cycles"] == 150
        assert len(payload["cycle"]) == 150 + r.drain_cycles
        assert sum(payload["depth_hist"]) > 0
        assert payload["delivered"] == [int(v) for v in r.trace.delivered]


class TestValidation:
    def test_rejects_bad_rate_and_size(self):
        with pytest.raises(ValueError):
            simulate_butterfly_queued(3, 1.5)
        with pytest.raises(ValueError):
            simulate_butterfly_queued(3, -0.1)
        with pytest.raises(ValueError):
            sweep_rates(0, [0.5])

    @pytest.mark.parametrize("cycles, warmup", [(100, 100), (100, 200),
                                                (50, -1)])
    def test_rejects_an_empty_measured_window(self, cycles, warmup):
        """``warmup >= cycles`` leaves no cycle to measure: offered 0,
        throughput 0 and latency ``inf`` used to come back as a result."""
        match = "need 0 <= warmup < cycles"
        with pytest.raises(ValueError, match=match):
            simulate_butterfly_queued(3, 0.8, cycles=cycles, warmup=warmup)
        with pytest.raises(ValueError, match=match):
            sweep_rates(3, [0.5, 0.8], cycles=cycles, warmup=warmup,
                        workers=2)

    def test_numpy_types_roundtrip(self):
        # sweep_rates coerces rates/seeds so numpy scalars are fine
        res = sweep_rates(2, np.array([0.5]), cycles=100, warmup=20,
                          seeds=np.array([1]))
        assert res[0].rate_per_input == 0.5
