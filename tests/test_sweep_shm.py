"""Shared-memory plumbing of the parallel rate sweep.

Pins the two promises of the ``workers > 1`` path of
:func:`repro.algorithms.sweep_rates`: the pool produces results equal to
the serial path, and each worker's pickled payload is a constant-size
handle — the precomputed injection arrays travel through one shared
block and are *attached* as zero-copy views, never re-pickled per job.
"""

import pickle

import numpy as np

from repro.algorithms.queued_routing import (
    _INJ_KEYS,
    _default_drain,
    _packet_dtype,
    _prepare_injections,
    _sweep_chunk,
    _sweep_chunk_shm,
    sweep_rates,
)
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


def test_worker_payload_excludes_injection_arrays():
    n, cycles, warmup = 6, 800, 100
    jobs = [(0.6, 0), (0.6, 1), (0.4, 2)]
    pdtype = _packet_dtype(n, cycles, _default_drain(n))
    inj = _prepare_injections(n, jobs, cycles, warmup, pdtype)
    arrays = {f"c0_{k}": a for k, a in zip(_INJ_KEYS, inj)}
    raw_bytes = sum(a.nbytes for a in arrays.values())

    with share_arrays(**arrays) as pack:
        payload = (pack, 0, n, jobs, cycles, warmup, None)
        wire = len(pickle.dumps(payload))
        # the per-job pickle is a handle, not the data: the injection
        # arrays (hundreds of KiB here) must not ride along
        assert wire < 4096
        assert raw_bytes > 50 * wire

        got = _sweep_chunk_shm(payload)

    want = _sweep_chunk((n, jobs, cycles, warmup, None))
    assert got == want


def test_workers_attach_zero_copy_views():
    n, cycles, warmup = 5, 300, 50
    jobs = [(0.5, 7)]
    pdtype = _packet_dtype(n, cycles, _default_drain(n))
    inj = _prepare_injections(n, jobs, cycles, warmup, pdtype)
    arrays = {f"c0_{k}": a for k, a in zip(_INJ_KEYS, inj)}

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

