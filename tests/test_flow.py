import numpy as np
import pytest

import dmdlab.flow as flow
from dmdlab import NULL_LABEL, NetConfig, init_params
from dmdlab.data import Component, MixtureSpec, LabeledBatch, gmm8, sample_dataset
from dmdlab.flow import (LOG_EVERY, TeacherConfig, cfg_combine, renoise,
                         sample_teacher, teacher_loss, train_teacher)
from dmdlab.optim import adam_step


class ForcedRng:
    """Minimal rng stub: uniform returns a fixed value, normals delegate."""

    def __init__(self, uniform_value, seed=0):
        self.uniform_value = uniform_value
        self.inner = np.random.default_rng(seed)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        if size is None:
            return self.uniform_value
        return np.full(size, self.uniform_value)

    def standard_normal(self, shape=None):
        return self.inner.standard_normal(shape)


class TestRenoise:
    def test_clean_endpoint(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        eps = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(renoise(x, 1.0, eps), x)

    def test_noise_endpoint(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        eps = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(renoise(x, 0.0, eps), eps)

    def test_midpoint(self):
        x = np.array([[2.0, 0.0]])
        eps = np.zeros((1, 2))
        np.testing.assert_array_equal(renoise(x, 0.5, eps), [[1.0, 0.0]])

    def test_affine_in_x(self):
        # for fixed eps: linear in x with slope tau and offset (1 - tau) eps
        rng = np.random.default_rng(2)
        eps = rng.standard_normal((4, 2))
        tau = 0.37
        x1 = rng.standard_normal((4, 2))
        x2 = rng.standard_normal((4, 2))
        slope = (renoise(x2, tau, eps) - renoise(x1, tau, eps)) / (x2 - x1)
        np.testing.assert_allclose(slope, tau, rtol=1e-12)
        offset = renoise(np.zeros_like(eps), tau, eps)
        np.testing.assert_allclose(offset, (1 - tau) * eps, rtol=1e-15)

    def test_per_sample_tau(self):
        x = np.ones((3, 2))
        eps = np.zeros((3, 2))
        out = renoise(x, np.array([0.0, 0.5, 1.0]), eps)
        np.testing.assert_allclose(out, [[0, 0], [0.5, 0.5], [1, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            renoise(np.zeros((2, 2)), 0.5, np.zeros((3, 2)))
        with pytest.raises(ValueError,
                           match=r"^per-sample tau length must match batch$"):
            renoise(np.zeros((2, 2)), np.array([0.1, 0.2, 0.3]),
                    np.zeros((2, 2)))


class TestCfgCombine:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="^conditional/unconditional "
                           "shape mismatch$"):
            cfg_combine(np.zeros((2, 2)), np.zeros((3, 2)), 2.0)

    def test_alpha_one_exact(self):
        rng = np.random.default_rng(3)
        s_cond = rng.standard_normal((4, 2)) * 1e6
        s_uncond = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(cfg_combine(s_cond, s_uncond, 1.0), s_cond)

    def test_alpha_zero(self):
        rng = np.random.default_rng(4)
        s_cond = rng.standard_normal((4, 2))
        s_uncond = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(cfg_combine(s_cond, s_uncond, 0.0), s_uncond)

    def test_direct_evaluation(self):
        out = cfg_combine(np.array([1.0]), np.array([0.0]), 7.5)
        np.testing.assert_allclose(out, [7.5])

    def test_identical_inputs_noop(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((6, 2))
        for alpha in (0.0, 1.0, 3.5, 10.0):
            np.testing.assert_allclose(cfg_combine(s, s.copy(), alpha), s,
                                       atol=1e-12)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -0.5])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be finite and >= 0$"):
            cfg_combine(np.ones((2, 2)), np.zeros((2, 2)), alpha)


class TestTeacherLoss:
    def test_perfect_denoiser_zero_loss(self):
        spec = gmm8()
        batch = sample_dataset(spec, 64, np.random.default_rng(6))
        target = batch.points

        def oracle(x_tau, tau, cond):
            return target.copy()

        loss, grads = teacher_loss(oracle, batch, np.random.default_rng(7))
        assert loss == 0.0
        assert grads is None

    def test_single_point_tau_one(self):
        c = np.array([1.5, -0.5])
        batch = LabeledBatch(points=np.tile(c, (8, 1)), labels=np.zeros(8, dtype=int))

        def constant(x_tau, tau, cond):
            # at tau=1 the renoised input is the clean point itself
            np.testing.assert_allclose(x_tau, np.tile(c, (8, 1)))
            return np.tile(c, (8, 1))

        loss, _ = teacher_loss(constant, batch, ForcedRng(1.0))
        assert loss == 0.0

    def test_gradients_flow_for_params(self):
        spec = gmm8()
        cfg = NetConfig(dim=2, n_labels=4, hidden=8, n_hidden=2)
        params = init_params(cfg, np.random.default_rng(8))
        batch = sample_dataset(spec, 16, np.random.default_rng(9))
        loss, grads = teacher_loss(params, batch, np.random.default_rng(10))
        assert loss > 0
        assert any(np.any(g != 0) for _, g in grads.slots())


class TestSampleTeacher:
    def test_one_step_is_single_jump(self):
        seen = []

        def predictor(z, t, cond):
            seen.append(t)
            return z * 0.5 + 1.0

        rng = np.random.default_rng(11)
        out = sample_teacher(predictor, 1, 1.0, 0, 16, rng, dim=2)
        assert seen == [0.0]
        assert out.shape == (16, 2)

    def test_point_mass_fixed_point(self):
        c = np.array([0.7, -1.2])

        def oracle(z, t, cond):
            return np.tile(c, (z.shape[0], 1))

        for n_steps in (1, 3, 50):
            out = sample_teacher(oracle, n_steps, 1.0, 0, 5,
                                 np.random.default_rng(12), dim=2)
            np.testing.assert_allclose(out, np.tile(c, (5, 1)), atol=1e-12)

    def test_gaussian_posterior_mean_consistency(self):
        # closed-form denoiser for N(mu, s^2 I) under x_tau = (1-t) eps + t x:
        # E[x | z at t] = mu + t s^2 / (t^2 s^2 + (1-t)^2) * (z - t mu)
        mu = np.array([1.5, -0.5])
        s2 = 0.49

        def posterior_mean(z, t, cond):
            g = t * s2 / (t * t * s2 + (1 - t) ** 2)
            return mu + g * (z - t * mu)

        rng = np.random.default_rng(13)
        out = sample_teacher(posterior_mean, 50, 1.0, 0, 4000, rng, dim=2)
        assert np.all(np.abs(out.mean(axis=0) - mu) < 0.06)
        np.testing.assert_allclose(out.std(axis=0), np.sqrt(s2), rtol=0.06)
        cov = np.cov(out.T)
        assert abs(cov[0, 1]) < 0.05

    def test_guided_steps_match_reference_recurrence(self):
        # a closed-form predictor whose output depends on the label, so the
        # guided combination differs from either prediction
        calls = []

        def predictor(z, t, cond):
            calls.append((t, np.array(cond)))
            return 0.3 * z + (1.0 - t) * (cond[:, None] + 2.0)

        n_steps, alpha, n = 4, 2.5, 6
        cond = np.array([0, 1, 2, 3, 0, 1])
        out = sample_teacher(predictor, n_steps, alpha, cond, n,
                             np.random.default_rng(14), dim=2)

        ref_calls = calls[:]
        z = np.random.default_rng(14).standard_normal((n, 2))
        dt = 1.0 / n_steps
        for k in range(n_steps):
            t = k * dt
            xhat = cfg_combine(predictor(z, t, cond),
                               predictor(z, t, np.full(n, NULL_LABEL)), alpha)
            z = z + dt * (xhat - z) / (1.0 - t)
        np.testing.assert_array_equal(out, z)

        assert len(ref_calls) == 2 * n_steps
        for k in range(n_steps):
            (t_c, c_c), (t_u, c_u) = ref_calls[2 * k:2 * k + 2]
            assert t_c == t_u == k * dt
            np.testing.assert_array_equal(c_c, cond)
            np.testing.assert_array_equal(c_u, np.full(n, NULL_LABEL))

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            sample_teacher(lambda z, t, c: z, 0, 1.0, 0, 4,
                           np.random.default_rng(0), dim=2)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -0.5])
    def test_bad_alpha_rejected_before_any_call(self, alpha):
        def predictor(z, t, c):
            raise AssertionError("the sampler evaluated the model")

        with pytest.raises(ValueError, match="^alpha must be finite and >= 0$"):
            sample_teacher(predictor, 2, alpha, 0, 4,
                           np.random.default_rng(0), dim=2)

    @pytest.mark.parametrize("n_steps", [True, 2.0, 2.5, 0, -1])
    def test_bad_n_steps_rejected_before_any_draw(self, n_steps):
        def predictor(z, t, c):
            raise AssertionError("the sampler evaluated the model")

        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="^n_steps must be an integer >= 1, "
                           f"got {n_steps!r}$"):
            sample_teacher(predictor, n_steps, 1.0, 0, 4, rng, dim=2)
        assert rng.bit_generator.state == before

    def test_numpy_integer_n_steps_accepted(self):
        out = sample_teacher(lambda z, t, c: np.zeros_like(z), np.int64(2),
                             1.0, 0, 4, np.random.default_rng(0), dim=2)
        assert out.shape == (4, 2)

    def test_injected_predictor_needs_dim(self):
        with pytest.raises(ValueError,
                           match="^dim is required for injected predictors$"):
            sample_teacher(lambda z, t, c: z, 1, 1.0, 0, 4,
                           np.random.default_rng(0))


class TestTeacherTraining:
    def test_small_run_learns_something(self, tmp_path):
        spec = MixtureSpec(dim=2, label_count=1, components=[
            Component(0, np.array([1.0, 1.0]), np.array([0.01, 0.01]), 1.0)])
        cfg = TeacherConfig(iterations=400, batch=64, lr=3e-3)
        log = tmp_path / "log.csv"
        params = train_teacher(spec, cfg, np.random.default_rng(14), log_path=log)
        rng = np.random.default_rng(15)
        out = sample_teacher(params, 20, 1.0, 0, 256, rng)
        assert np.all(np.abs(out.mean(axis=0) - 1.0) < 0.3)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss"
        # iteration 1 and every LOG_EVERY-th
        assert [int(line.split(",")[0]) for line in lines[1:]] == [
            1, *range(LOG_EVERY, 401, LOG_EVERY)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TeacherConfig(p_uncond=0.0).validate()
        with pytest.raises(ValueError):
            TeacherConfig(lr=1e-3, lr_final=1e-2).validate()

    @pytest.mark.parametrize("fixed", [True, False])
    def test_lr_must_be_positive(self, fixed):
        for lr in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^lr "):
                TeacherConfig(lr=lr, lr_final=lr if fixed else 1e-5)

    def test_lr_final_equal_to_lr_keeps_lr_fixed(self, monkeypatch):
        lrs = []

        def record(opt, params, grads):
            lrs.append(opt.lr)
            adam_step(opt, params, grads)

        monkeypatch.setattr(flow, "adam_step", record)
        cfg = TeacherConfig(iterations=7, batch=8, lr=3e-3, lr_final=3e-3)
        train_teacher(gmm8(), cfg, np.random.default_rng(16))
        assert lrs == [3e-3] * 7

    @pytest.mark.parametrize("key", ["iterations", "batch", "lr_final",
                                     "p_uncond", "ema_decay"])
    def test_nan_rejected_under_its_key(self, key):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{key} "):
                TeacherConfig(**{key: value})

    @pytest.mark.parametrize("key", ["lr", "lr_final", "p_uncond",
                                     "ema_decay"])
    def test_non_number_rejected_under_its_key(self, key):
        # a library caller's None (lr_final's old "fixed lr") or string fails
        # the range check, not the comparison inside it
        for value in ("x", [0.5], None):
            if key == "ema_decay" and value is None:
                continue  # None turns the EMA off
            with pytest.raises(ValueError, match=f"^{key} "):
                TeacherConfig(**{key: value})

    @pytest.mark.parametrize("key,value", [
        ("iterations", 2.5), ("iterations", 4.0), ("batch", 2.5),
        ("iterations", True), ("batch", True)])
    def test_fractional_count_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a positive "
                           "integer$"):
            TeacherConfig(**{key: value})

    def test_ema_smoothed_training(self):
        spec = MixtureSpec(dim=2, label_count=1, components=[
            Component(0, np.array([0.5, 0.5]), np.array([0.04, 0.04]), 1.0)])
        cfg = TeacherConfig(iterations=60, batch=16, ema_decay=0.9)
        params = train_teacher(spec, cfg, np.random.default_rng(30))
        assert all(np.isfinite(a).all() for _, a in params.slots())

    @pytest.mark.slow
    def test_loss_trend_on_gmm8(self, teacher_bundle):
        # smoothed curve: late training beats early training
        rows = teacher_bundle["log"]
        losses = {it: loss for it, loss in rows}

        def smoothed(center, width=300):
            vals = [l for it, l in rows if abs(it - center) <= width]
            return float(np.mean(vals))

        assert smoothed(5000) < smoothed(100)
        assert smoothed(max(losses)) <= smoothed(100)
