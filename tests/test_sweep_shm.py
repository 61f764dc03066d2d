"""The parallel rate sweep's payloads and the shared-memory handoff.

Pins the promises of the ``workers > 1`` path of
:func:`repro.algorithms.sweep_rates`: the pool produces results equal to
the serial path, and each worker's pickled payload is a small tuple that
does not grow with ``cycles`` — workers draw their own injections block
by block, so no injection array crosses the pipe.  The shared-memory
block of :mod:`repro.backend.shm`, which the Benes pool
(``route_permutations(workers=)``) routes through, round-trips arrays
and hands workers zero-copy views.
"""

import pickle

import numpy as np

from repro.algorithms import queued_routing
from repro.algorithms.queued_routing import _run_batch, _sweep_chunk, sweep_rates
from repro.backend.shm import attach, attach_cached, read_array, share_arrays


def test_shm_roundtrip_and_views():
    a = np.arange(100, dtype=np.int64)
    b = np.random.default_rng(1234).random(33)
    with share_arrays(a=a, b=b) as pack:
        assert sorted(pack.keys) == ["a", "b"]
        assert np.array_equal(read_array(pack, "a"), a)
        block, views = attach(pack)
        try:
            assert np.array_equal(views["a"], a)
            assert np.array_equal(views["b"], b)
            # zero-copy: the view aliases the shared buffer, not a pickle
            assert views["a"].base is not None
        finally:
            del views
            block.close()


def test_parallel_sweep_equals_serial():
    kw = dict(cycles=120, warmup=20, seeds=(0, 1), batch=2)
    serial = sweep_rates(3, [0.2, 0.5, 0.8], **kw)
    par = sweep_rates(3, [0.2, 0.5, 0.8], workers=2, **kw)
    assert par == serial
    assert len(par) == 6  # rate-major: all seeds of each rate


class _RecordingPool:
    """Stands in for the pool: keeps the pickled payloads and runs
    nothing, so a million-cycle sweep costs no simulation."""

    def __init__(self, sent):
        self.sent = sent

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        assert fn is _sweep_chunk
        self.sent.extend(pickle.dumps((fn, p)) for p in payloads)
        return [[] for _ in payloads]


class _RecordingContext:
    def __init__(self):
        self.sent = []

    def Pool(self, procs):
        return _RecordingPool(self.sent)


def test_worker_payload_excludes_injection_arrays(monkeypatch):
    n, warmup = 6, 100
    sizes = {}
    for cycles in (800, 1_000_000):
        ctx = _RecordingContext()
        monkeypatch.setattr(
            queued_routing.multiprocessing, "get_context", lambda: ctx
        )
        sweep_rates(n, [0.6, 0.4], cycles=cycles, warmup=warmup,
                    seeds=(0, 1), batch=2, workers=2)
        assert len(ctx.sent) == 2
        sizes[cycles] = max(len(wire) for wire in ctx.sent)
        # the per-job pickle is the chunk's parameters, not its data
        assert sizes[cycles] < 4096
    # the cycle count is one pickled int: a few bytes more, no arrays
    assert sizes[1_000_000] <= sizes[800] + 8

    # what a worker receives runs the same simulation as the serial path
    fn, payload = pickle.loads(ctx.sent[0])
    assert payload == (n, [(0.6, 0), (0.6, 1)], 1_000_000, warmup, None)
    small = (n, [(0.6, 0), (0.6, 1)], 800, warmup, None)
    assert fn(small) == _run_batch(*small)


def test_workers_attach_zero_copy_views():
    # the Benes pool's arrays: permutations in, settings written back
    rng = np.random.default_rng(7)
    arrays = {
        "perms": np.array([rng.permutation(32) for _ in range(3)]),
        "crossed": np.zeros((3, 9, 16), dtype=bool),
    }

    with share_arrays(**arrays) as pack:
        views = attach_cached(pack)
        for key, src in arrays.items():
            v = views[key]
            assert v.base is not None, f"{key} was copied out of the block"
            assert v.dtype == src.dtype and v.shape == src.shape
            np.testing.assert_array_equal(v, src)
        # a second attach in the same process reuses the cached mapping
        again = attach_cached(pack)
        for key in arrays:
            assert again[key] is views[key]
        # a write through the view lands in the shared block
        views["crossed"][1, 4, :] = True
        assert read_array(pack, "crossed")[1, 4].all()
