"""Unit and property tests for the Randfixedsum implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generation.randfixedsum import randfixedsum, randfixedsum_vector


class TestRandfixedsum:
    def test_shape(self):
        values = randfixedsum(5, 2.0, num_sets=7, rng=np.random.default_rng(0))
        assert values.shape == (7, 5)

    def test_rows_sum_to_target(self):
        values = randfixedsum(6, 2.5, num_sets=20, rng=np.random.default_rng(1))
        assert np.allclose(values.sum(axis=1), 2.5)

    def test_values_in_unit_interval(self):
        values = randfixedsum(6, 2.5, num_sets=50, rng=np.random.default_rng(2))
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    def test_single_value(self):
        values = randfixedsum(1, 0.7, num_sets=3, rng=np.random.default_rng(3))
        assert np.allclose(values, 0.7)

    def test_extreme_totals(self):
        zero = randfixedsum(4, 0.0, rng=np.random.default_rng(4))
        assert np.allclose(zero, 0.0)
        full = randfixedsum(4, 4.0, rng=np.random.default_rng(5))
        assert np.allclose(full, 1.0)

    def test_determinism_with_seeded_generator(self):
        a = randfixedsum(5, 1.5, num_sets=4, rng=np.random.default_rng(42))
        b = randfixedsum(5, 1.5, num_sets=4, rng=np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            randfixedsum(0, 0.5)
        with pytest.raises(ValueError):
            randfixedsum(3, -0.1)
        with pytest.raises(ValueError):
            randfixedsum(3, 3.5)
        with pytest.raises(ValueError):
            randfixedsum(3, 1.0, num_sets=0)

    @given(
        n=st.integers(2, 12),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariants_hold_for_random_parameters(self, n, fraction, seed):
        total = fraction * n
        values = randfixedsum(n, total, num_sets=3, rng=np.random.default_rng(seed))
        assert values.shape == (3, n)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)
        assert np.allclose(values.sum(axis=1), total, atol=1e-8)

    def test_distribution_is_not_degenerate(self):
        """Values should vary across positions, not collapse to total / n."""
        values = randfixedsum(8, 2.0, num_sets=200, rng=np.random.default_rng(7))
        assert values.std() > 0.05


def _totals(n: int, meta: np.random.Generator):
    """Totals of every kind the draw must handle for *n* values: the
    bounds 0 and n, every integer in between, and random fractions."""
    yield 0.0
    yield float(n)
    yield from (float(k) for k in range(1, n))
    yield from (float(u) for u in meta.uniform(0.0, n, size=4))
    yield float(meta.uniform(0.0, min(n, 1.5)))


def _count_differences(n: int, total: float, seed: int) -> int:
    """Floats in which the scalar draw differs from NumPy's (asserting the
    rng ends in the same state)."""
    numpy_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    expected = randfixedsum(n, total, num_sets=1, rng=numpy_rng)[0]
    got = np.asarray(randfixedsum_vector(n, total, rng=scalar_rng))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert numpy_rng.bit_generator.state == scalar_rng.bit_generator.state
    return int(np.count_nonzero(got.view(np.uint64) != expected.view(np.uint64)))


class TestSingleVectorDraw:
    """``randfixedsum_vector`` is the scalar port the generator uses; it
    must return NumPy's floats bit for bit and leave the rng in the same
    state."""

    @pytest.mark.slow
    def test_bit_identical_to_numpy_draw(self):
        meta = np.random.default_rng(20_000)
        draws = values = differing = 0
        # Small vectors with every kind of total, then the generator's
        # Table-3 sizes (3M..10M RT and 2M..5M security tasks on up to
        # 4 cores) with random totals.
        while draws < 20_000:
            for n in range(1, 13):
                for total in _totals(n, meta):
                    differing += _count_differences(
                        n, total, int(meta.integers(0, 2**63))
                    )
                    draws += 1
                    values += n
        for n in meta.integers(8, 41, size=500).tolist():
            total = float(meta.uniform(0.0, n))
            differing += _count_differences(n, total, int(meta.integers(0, 2**63)))
            draws += 1
            values += n
        assert values > 150_000
        assert differing == 0

    @given(
        n=st.integers(min_value=1, max_value=45),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_hex_identical_to_numpy_draw(self, n, data, seed):
        total = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=n).map(float),
                st.floats(min_value=0.0, max_value=float(n)),
            ),
            label="total",
        )
        expected = randfixedsum(n, total, 1, np.random.default_rng(seed))[0]
        got = randfixedsum_vector(n, total, rng=np.random.default_rng(seed))
        assert [value.hex() for value in got] == [
            float(value).hex() for value in expected
        ]

    def test_large_vectors_match(self):
        for n in (40, 80):
            for total in (0.3 * n, float(n // 2), 0.97 * n):
                assert _count_differences(n, total, n) == 0

    def test_returns_python_floats(self):
        values = randfixedsum_vector(5, 2.0, rng=np.random.default_rng(3))
        assert all(type(value) is float for value in values)
        assert randfixedsum_vector(1, 0.25, rng=np.random.default_rng(3)) == [0.25]

    def test_invalid_arguments_match_numpy_draw(self):
        for args in ((0, 0.5), (3, -0.1), (3, 3.5)):
            with pytest.raises(ValueError) as scalar:
                randfixedsum_vector(*args)
            with pytest.raises(ValueError) as vector:
                randfixedsum(*args)
            assert str(scalar.value) == str(vector.value)
