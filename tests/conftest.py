"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.topology.swap import SwapNetworkParams


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point the design-service cache at a per-session directory so CLI
    tests never touch (or depend on) the user's real cache."""
    import os

    path = str(tmp_path_factory.mktemp("repro-cache"))
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = path
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:  # pragma: no cover - depends on the invoking environment
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def small_param_vectors():
    """A representative spread of ISN parameter vectors (kept small so the
    full-graph checks stay fast)."""
    return [
        (1, 1),
        (2, 1),
        (2, 2),
        (3, 2),
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 2),
        (3, 2, 2),
        (3, 3, 3),
        (2, 2, 1),
        (2, 2, 2, 2),
        (3, 3, 2, 1),
    ]


def param_vector_strategy(max_l: int = 4, max_k1: int = 4, max_n: int = 10):
    """Hypothesis strategy for valid HSN-like parameter vectors
    (non-increasing ``k_i``, at least 2 levels)."""

    @st.composite
    def vectors(draw):
        l = draw(st.integers(min_value=2, max_value=max_l))
        k1 = draw(st.integers(min_value=1, max_value=max_k1))
        ks = [k1]
        for _ in range(l - 1):
            ks.append(draw(st.integers(min_value=1, max_value=min(k1, sum(ks)))))
        if sum(ks) > max_n:
            ks = ks[: max(2, 1 + (max_n - k1) // max(1, min(ks[1:], default=1)))]
            while sum(ks) > max_n and len(ks) > 2:
                ks.pop()
        # re-validate; fall back to a tiny vector if trimming broke rules
        try:
            SwapNetworkParams(ks)
        except ValueError:
            ks = [1, 1]
        return tuple(ks)

    return vectors()
