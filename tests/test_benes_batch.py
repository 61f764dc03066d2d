"""Differential tests: batched Benes engine vs the legacy recursion.

The batched engine must be *bit-for-bit* identical to the legacy
oracles in ``tests/oracles`` — same switch settings column by column, same realized
permutations, same crossed-switch counts — across exhaustive small
grids, random large batches, and hypothesis-driven cases up to N=1024.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.benes_routing import (
    _CHUNK_ELEMS,
    BenesSettings,
    BenesSettingsBatch,
    apply_settings,
    apply_settings_batch,
    num_switch_stages,
    route_permutation,
    route_permutations,
)

from tests.oracles.benes_routing import (
    apply_settings_legacy,
    route_permutation_legacy,
)


def _random_perms(rng, B, N):
    return np.array([rng.permutation(N) for _ in range(B)])


class TestSettingsParity:
    @pytest.mark.parametrize("N", [4, 8])
    def test_exhaustive_settings_and_realization(self, N):
        """Every permutation of N=4 and N=8: settings identical to the
        legacy recursion and realization identical to the legacy
        simulator."""
        perms = list(permutations(range(N)))
        batch = route_permutations(np.array(perms))
        realized = apply_settings_batch(batch)
        for i, perm in enumerate(perms):
            legacy = route_permutation_legacy(list(perm))
            assert np.array_equal(batch.crossed[i], legacy.to_array()), perm
            assert realized[i].tolist() == list(perm)
            assert apply_settings_legacy(legacy) == list(perm)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_random_batches(self, n):
        rng = np.random.default_rng(n)
        N = 1 << n
        perms = _random_perms(rng, 8, N)
        batch = route_permutations(perms)
        for i in range(len(perms)):
            legacy = route_permutation_legacy(perms[i].tolist())
            assert np.array_equal(batch.crossed[i], legacy.to_array())
        assert np.array_equal(apply_settings_batch(batch), perms)

    def test_single_wrappers_match_legacy(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(32).tolist()
        s_new = route_permutation(perm)
        s_old = route_permutation_legacy(perm)
        assert s_new == s_old
        assert apply_settings(s_new) == apply_settings_legacy(s_old) == perm

    def test_count_crossed_invariant_across_engines(self):
        """count_crossed agrees between BenesSettings (legacy and new)
        and the batch's vectorized per-row counts."""
        rng = np.random.default_rng(7)
        perms = _random_perms(rng, 6, 64)
        batch = route_permutations(perms)
        counts = batch.count_crossed()
        for i in range(len(perms)):
            legacy = route_permutation_legacy(perms[i].tolist())
            assert int(counts[i]) == legacy.count_crossed()
            assert batch.settings(i).count_crossed() == legacy.count_crossed()


class TestApplyRandomSettings:
    """The blocked apply on arbitrary settings, not only routed ones:
    every row must realize what the legacy simulator realizes."""

    @staticmethod
    def _assert_rows_match_legacy(n, crossed):
        got = apply_settings_batch(BenesSettingsBatch(n=n, crossed=crossed))
        for b in range(len(crossed)):
            legacy = BenesSettings(n=n, stages=crossed[b].tolist())
            assert got[b].tolist() == apply_settings_legacy(legacy), b

    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_settings_match_legacy(self, n):
        rng = np.random.default_rng(100 + n)
        crossed = rng.random((5, num_switch_stages(n), 1 << (n - 1))) < 0.5
        self._assert_rows_match_legacy(n, crossed)

    def test_random_settings_across_row_blocks(self):
        # 130 rows of N = 1024 are three row blocks, the last one partial
        rows_per_block = _CHUNK_ELEMS // 1024
        assert 2 * rows_per_block < 130 < 3 * rows_per_block
        rng = np.random.default_rng(7)
        crossed = rng.random((130, num_switch_stages(10), 512)) < 0.5
        self._assert_rows_match_legacy(10, crossed)


class TestBatchApi:
    def test_batch_shape_and_accessors(self):
        rng = np.random.default_rng(1)
        perms = _random_perms(rng, 5, 16)
        batch = route_permutations(perms)
        assert batch.n == 4
        assert batch.num_terminals == 16
        assert batch.batch_size == len(batch) == 5
        assert batch.crossed.shape == (5, num_switch_stages(4), 8)
        assert batch.settings(2).to_array().shape == (7, 8)

    def test_one_dim_input_promoted(self):
        perm = [3, 1, 0, 2]
        batch = route_permutations(perm)
        assert batch.batch_size == 1
        assert np.array_equal(
            batch.crossed[0], route_permutation_legacy(perm).to_array()
        )

    def test_workers_and_chunking_do_not_change_settings(self):
        rng = np.random.default_rng(2)
        perms = _random_perms(rng, 9, 32)
        serial = route_permutations(perms)
        pooled = route_permutations(perms, workers=2)
        chunked = route_permutations(perms, workers=2, chunk=2)
        assert np.array_equal(serial.crossed, pooled.crossed)
        assert np.array_equal(serial.crossed, chunked.crossed)

    def test_rejects_bad_batches(self):
        with pytest.raises(ValueError):
            route_permutations(np.zeros((2, 3), dtype=int))  # not power of two
        with pytest.raises(ValueError):
            route_permutations([[0, 0, 1, 1]])  # not a permutation
        with pytest.raises(ValueError):
            route_permutations(np.zeros((2, 2, 2), dtype=int))  # bad rank
        with pytest.raises(ValueError):
            BenesSettingsBatch(n=3, crossed=np.zeros((2, 5, 3), dtype=bool))

    def test_large_batch_realizes_n1024(self):
        """A taste of the production shape: N=1024 rows route and
        realize exactly."""
        rng = np.random.default_rng(3)
        perms = _random_perms(rng, 4, 1024)
        batch = route_permutations(perms)
        assert np.array_equal(apply_settings_batch(batch), perms)
        legacy = route_permutation_legacy(perms[0].tolist())
        assert np.array_equal(batch.crossed[0], legacy.to_array())


@settings(deadline=None, max_examples=25)
@given(
    st.integers(2, 10),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_batch_parity_property(n, B, rnd):
    """Hypothesis sweep up to N=1024: the batch realizes its input, and
    a sampled row matches the legacy recursion bit for bit."""
    N = 1 << n
    perms = []
    for _ in range(B):
        p = list(range(N))
        rnd.shuffle(p)
        perms.append(p)
    arr = np.array(perms)
    batch = route_permutations(arr)
    assert np.array_equal(apply_settings_batch(batch), arr)
    i = rnd.randrange(B)
    if N <= 256:  # legacy recursion is slow; sample the oracle
        legacy = route_permutation_legacy(perms[i])
        assert np.array_equal(batch.crossed[i], legacy.to_array())
