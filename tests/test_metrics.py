import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmdlab.data import Component, MixtureSpec, gmm8
from dmdlab.metrics import (RADIUS_MULT, _PROJ_BLOCK, _quantile_grid,
                            batch_sample_stats, csv_row, mode_coverage,
                            sliced_wasserstein2, wasserstein2_1d)
from dmdlab.net import NonFiniteError


def brute_force_w2_1d(a, b):
    """Oracle: integrate the squared quantile gap on a fine grid."""
    a = np.sort(np.asarray(a, float))
    b = np.sort(np.asarray(b, float))
    qs = (np.arange(100_000) + 0.5) / 100_000
    av = a[np.minimum((qs * len(a)).astype(int), len(a) - 1)]
    bv = b[np.minimum((qs * len(b)).astype(int), len(b) - 1)]
    return float(np.sqrt(np.mean((av - bv) ** 2)))


def reference_sliced_w2(A, B, n_proj, rng):
    """Reference: one direction drawn, normalized and projected at a time,
    each projection's distance from wasserstein2_1d."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    total = 0.0
    for _ in range(n_proj):
        v = rng.standard_normal(A.shape[1])
        v /= np.linalg.norm(v)
        total += wasserstein2_1d(A @ v, B @ v)
    return total / n_proj


class TestSlicedWasserstein:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((50, 3))
        assert sliced_wasserstein2(A, A.copy(), 16, np.random.default_rng(0)) == 0.0

    def test_point_mass_shift_1d(self):
        d = sliced_wasserstein2(np.array([[0.0]]), np.array([[3.0]]), 8,
                                np.random.default_rng(1))
        np.testing.assert_allclose(d, 3.0, rtol=1e-12)

    def test_1d_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.standard_normal(int(rng.integers(2, 30)))
            b = rng.standard_normal(int(rng.integers(2, 30))) + 1.0
            got = wasserstein2_1d(a, b)
            want = brute_force_w2_1d(a, b)
            np.testing.assert_allclose(got, want, rtol=1e-3)

    def test_equal_sizes_sorted_pairs(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        want = np.sqrt(np.mean((np.sort(a) - np.sort(b)) ** 2))
        np.testing.assert_allclose(wasserstein2_1d(a, b), want, rtol=1e-14)

    def test_symmetry_with_shared_projections(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((30, 2))
        B = rng.standard_normal((45, 2)) + 0.5
        d1 = sliced_wasserstein2(A, B, 32, np.random.default_rng(9))
        d2 = sliced_wasserstein2(B, A, 32, np.random.default_rng(9))
        assert abs(d1 - d2) < 1e-12

    def test_triangle_inequality_1d(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            a = rng.standard_normal(15)
            b = rng.standard_normal(12) + rng.uniform(-2, 2)
            c = rng.standard_normal(20) * 2
            ab = wasserstein2_1d(a, b)
            bc = wasserstein2_1d(b, c)
            ac = wasserstein2_1d(a, c)
            assert ac <= ab + bc + 1e-12

    def test_dim_zero_rejected(self):
        with pytest.raises(ValueError):
            sliced_wasserstein2(np.zeros((3, 0)), np.zeros((3, 0)), 4,
                                np.random.default_rng(0))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError,
                           match="^dimension mismatch between sample sets$"):
            sliced_wasserstein2(np.zeros((3, 2)), np.zeros((3, 3)), 4,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("n_proj", [0, -3])
    def test_n_proj_below_one_rejected(self, n_proj):
        A = np.random.default_rng(32).standard_normal((10, 2))
        with pytest.raises(ValueError, match="n_proj"):
            sliced_wasserstein2(A, A + 1.0, n_proj, np.random.default_rng(0))

    @pytest.mark.parametrize("n,m", [(0, 5), (5, 0), (0, 0)])
    def test_empty_set_rejected(self, n, m):
        with pytest.raises(ValueError, match="empty sample set"):
            sliced_wasserstein2(np.zeros((n, 2)), np.ones((m, 2)), 4,
                                np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty sample set"):
            wasserstein2_1d(np.zeros(n), np.ones(m))

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 3), n=st.integers(1, 400),
           m=st.integers(1, 600), same_size=st.booleans(),
           n_proj=st.integers(1, 3 * _PROJ_BLOCK + 1),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_matches_reference_bit_exact(self, dim, n, m, same_size,
                                                 n_proj, seed):
        data = np.random.default_rng(seed)
        m = n if same_size else m
        A = data.standard_normal((n, dim)) * data.uniform(0.1, 5.0)
        B = data.standard_normal((m, dim)) + data.uniform(-2.0, 2.0)
        rng_ref = np.random.default_rng(seed + 1)
        rng_new = np.random.default_rng(seed + 1)
        want = reference_sliced_w2(A, B, n_proj, rng_ref)
        assert sliced_wasserstein2(A, B, n_proj, rng_new) == want
        # the runner shares one rng across labels: the draw count must match
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def union1d_quantile_grid(n, m):
    """Oracle: the merged grid's widths and order-statistic indices, built
    on np.union1d's sorted set of both level sets."""
    qs = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate([[0.0], qs, [1.0]])
    mids = (edges[:-1] + edges[1:]) / 2
    return (np.diff(edges), np.minimum((mids * n).astype(int), n - 1),
            np.minimum((mids * m).astype(int), m - 1))


class TestQuantileGrid:
    # wasserstein2_1d and the reference SW2 share _quantile_grid, so the
    # reference comparison above cannot see a changed grid; this one can
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000), m=st.integers(1, 3000))
    @example(n=1, m=1)
    @example(n=1, m=7)
    @example(n=9, m=1)
    @example(n=64, m=64)
    @example(n=12, m=18)  # shared divisor 6
    @example(n=100, m=250)  # shared divisor 50
    @example(n=7, m=13)  # coprime
    @example(n=255, m=256)  # coprime
    @example(n=256, m=2500)  # default eval_n, eval_ref_n per gmm8 label
    @example(n=2500, m=256)
    @example(n=256, m=2497)
    def test_matches_union1d_grid_bit_exact(self, n, m):
        for got, want in zip(_quantile_grid(n, m), union1d_quantile_grid(n, m)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestBatchSampleStats:
    def test_constant_sample(self):
        means, variances = batch_sample_stats(np.full((3, 4), 2.5))
        np.testing.assert_allclose(means, 2.5)
        np.testing.assert_allclose(variances, 0.0)

    def test_two_point_arithmetic(self):
        means, variances = batch_sample_stats(np.array([[0.0, 2.0]]))
        assert means[0] == 1.0
        assert variances[0] == 1.0  # population variance

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(25)
        batch = rng.standard_normal((20, 7))
        means, variances = batch_sample_stats(batch)
        for i in range(20):
            m = sum(batch[i]) / 7
            v = sum((batch[i] - m) ** 2) / 7
            assert abs(means[i] - m) < 1e-12
            assert abs(variances[i] - v) < 1e-12

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            batch_sample_stats(np.zeros((5, 1)))


class TestModeCoverage:
    def test_exact_hits(self):
        spec = gmm8()
        centers = np.stack([c.center for c in spec.components_for(1)])
        assert mode_coverage(centers, spec, 1) == 1.0

    def test_empty_samples(self):
        spec = gmm8()
        assert mode_coverage(np.zeros((0, 2)), spec, 0) == 0.0

    def test_constructed_half(self):
        spec = gmm8()
        comps = spec.components_for(2)
        assert len(comps) == 2
        samples = comps[0].center[None, :]
        assert mode_coverage(samples, spec, 2) == 0.5

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            mode_coverage(np.zeros((1, 2)), gmm8(), 17)

    def test_hit_radius_is_three_sigmas(self):
        spec = MixtureSpec(dim=2, label_count=1, components=[
            Component(0, np.array([0.0, 0.0]), np.array([4.0, 4.0]), 1.0)])
        assert RADIUS_MULT == 3.0
        assert mode_coverage(np.array([[6.0, 0.0]]), spec, 0) == 1.0
        assert mode_coverage(np.array([[6.001, 0.0]]), spec, 0) == 0.0


class TestCsvRow:
    VALUES = {"iteration": 5, "sw2": 0.1, "mean_of_means": 0.0,
              "mean_of_vars": 1.0, "mode_coverage": 0.5, "loss_proxy": 0.2,
              "loss_fake": 0.3, "loss_reg": 0.0, "tau_ca": 0.7, "tau_dm": 0.2,
              "t": 0.0}

    def test_row_shape_and_guard(self):
        row = csv_row(self.VALUES)
        assert len(row) == 11
        with pytest.raises(NonFiniteError) as err:
            csv_row({**self.VALUES, "sw2": float("nan")})
        assert err.value.context == {"field": "sw2"}

    def test_missing_key_raises_under_it(self):
        values = dict(self.VALUES)
        del values["mode_coverage"]
        with pytest.raises(NonFiniteError) as err:
            csv_row(values)
        assert err.value.context == {"field": "mode_coverage"}

    def test_extra_key_leaves_row_unchanged(self):
        row = csv_row(self.VALUES)
        assert csv_row({**self.VALUES, "norm_ca": float("nan"),
                        "note": "not a column"}) == row
