import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmdlab.net as net_mod
from dmdlab import NULL_LABEL, NetConfig, init_params, net_forward
from dmdlab.data import Component, MixtureSpec, expected_sample_stats, gmm8
from dmdlab.distill import (DistillConfig, DistillState, Mode, NonFiniteError,
                            Regularizer, SchedulePolicy, backward_simulate,
                            delta_ca, delta_dm, dmd_direction_coupled,
                            dmd_direction_decoupled, fake_model_update,
                            gan_losses, generator_update, init_distill_state,
                            meanvar_kl_loss, observer_probe,
                            proxy_loss_and_grad, sample_generator, sample_tau)
from dmdlab.flow import cfg_combine, renoise, sample_teacher
from dmdlab.metrics import sliced_wasserstein2


def tiny_net(seed, dim=2, n_labels=4, hidden=8, n_hidden=2, out_dim=None):
    cfg = NetConfig(dim=dim, n_labels=n_labels, hidden=hidden,
                    n_hidden=n_hidden, out_dim=out_dim, cond_dim=4,
                    temb_dim=6, n_freq=3)
    return init_params(cfg, np.random.default_rng(seed))


def zero_net_with_bias(value, dim=2, n_labels=4, out_dim=None):
    params = tiny_net(0, dim=dim, n_labels=n_labels, out_dim=out_dim)
    for _, a in params.slots():
        a[:] = 0.0
    params.biases[-1][:] = value
    return params


def base_config(**kw):
    kw.setdefault("normalizer_on", False)
    kw.setdefault("batch", 16)
    kw.setdefault("ttur_ratio", 2)
    return DistillConfig(**kw)


class TestSampleTau:
    def test_coupled_identical(self):
        config = DistillConfig(
            schedule_policy=SchedulePolicy.COUPLED_SHARED)
        rng = np.random.default_rng(0)
        for _ in range(50):
            ca, dm, shared = sample_tau(config, 0.3, rng)
            assert ca == dm
            assert shared is True

    def test_hybrid_ranges(self):
        config = DistillConfig(
            schedule_policy=SchedulePolicy.DECOUPLED_HYBRID)
        rng = np.random.default_rng(1)
        ca, dm, shared = sample_tau(config, 0.5, rng, size=100_000)
        assert shared is False
        assert np.all(ca >= 0.5) and np.all(ca <= 1.0)
        assert np.all(dm >= 0.0) and np.all(dm <= 1.0)
        assert dm.min() < 0.5  # actually exercises the full range

    def test_constrained_min_bound(self):
        config = DistillConfig(
            schedule_policy=SchedulePolicy.DECOUPLED_CONSTRAINED)
        rng = np.random.default_rng(2)
        ca, dm, _ = sample_tau(config, 0.75, rng, size=100_000)
        assert min(ca.min(), dm.min()) >= 0.75

    def test_override_replaces_default(self):
        config = DistillConfig(
            schedule_policy=SchedulePolicy.DECOUPLED_HYBRID,
            tau_ca_range=(0.0, 0.05))
        rng = np.random.default_rng(3)
        ca, dm, _ = sample_tau(config, 0.5, rng, size=10_000)
        assert ca.max() <= 0.05

    def test_empty_range_rejected(self):
        config = DistillConfig(
            schedule_policy=SchedulePolicy.DECOUPLED_CONSTRAINED)
        with pytest.raises(ValueError):
            sample_tau(config, 1.0, np.random.default_rng(4))

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError, match=r"^tau_ca_range must be \[lo, hi\] "
                           r"with 0 <= lo < hi <= 1$"):
            DistillConfig(schedule_policy=SchedulePolicy.DECOUPLED_FULL,
                          tau_ca_range=(0.9, 0.2))

    def test_schedule_bounds_all_policies(self):
        # invariant: zero violations on 1e5 draws for every policy and grid t
        rng = np.random.default_rng(5)
        for t in (0.0, 0.25, 0.5, 0.75):
            expectations = {
                SchedulePolicy.COUPLED_SHARED: ((0, 1), (0, 1)),
                SchedulePolicy.DECOUPLED_FULL: ((0, 1), (0, 1)),
                SchedulePolicy.DECOUPLED_CONSTRAINED: ((t, 1), (t, 1)),
                SchedulePolicy.DECOUPLED_HYBRID: ((t, 1), (0, 1)),
            }
            for policy, ((ca_lo, ca_hi), (dm_lo, dm_hi)) in expectations.items():
                ca, dm, _ = sample_tau(DistillConfig(schedule_policy=policy),
                                       t, rng, size=100_000)
                assert np.all((ca >= ca_lo) & (ca <= ca_hi))
                assert np.all((dm >= dm_lo) & (dm <= dm_hi))


_LEVELS = sorted({t for n in (1, 2, 4) for t in DistillConfig(n_steps=n).grid})
_RANGES = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    sorted).filter(lambda r: r[0] < r[1]).map(tuple)


@settings(max_examples=300, deadline=None)
@given(policy=st.sampled_from(SchedulePolicy), t=st.sampled_from(_LEVELS),
       ca_o=st.none() | _RANGES, dm_o=st.none() | _RANGES,
       size=st.none() | st.integers(1, 4), seed=st.integers(0, 2 ** 32))
def test_schedule_table_property(policy, t, ca_o, dm_o, size, seed):
    """Each policy draws from its row of this table, an override replacing
    its term's range; COUPLED_SHARED makes one draw, from whichever override
    is set, and returns it twice; the rng advances by exactly its draws."""
    coupled = policy == SchedulePolicy.COUPLED_SHARED
    if coupled and ca_o and dm_o:
        dm_o = ca_o  # two different ranges are rejected under one draw
    rest, full = (t, 1.0), (0.0, 1.0)
    ca_row, dm_row = {SchedulePolicy.COUPLED_SHARED: (full, full),
                      SchedulePolicy.DECOUPLED_FULL: (full, full),
                      SchedulePolicy.DECOUPLED_CONSTRAINED: (rest, rest),
                      SchedulePolicy.DECOUPLED_HYBRID: (rest, full)}[policy]
    expected = ([ca_o or dm_o or full] * 2 if coupled
                else [ca_o or ca_row, dm_o or dm_row])
    rng = np.random.default_rng(seed)
    config = DistillConfig(schedule_policy=policy, tau_ca_range=ca_o,
                           tau_dm_range=dm_o)
    ca, dm, shared = sample_tau(config, t, rng, size=size)
    assert shared is coupled
    for draw, (lo, hi) in zip((ca, dm), expected):
        assert np.shape(draw) == (() if size is None else (size,))
        assert np.all((lo <= draw) & (draw <= hi))
    twin = np.random.default_rng(seed)
    assert np.array_equal(ca, twin.uniform(*expected[0], size))
    if coupled:
        assert dm is ca
    else:
        assert np.array_equal(dm, twin.uniform(*expected[1], size))
    assert rng.bit_generator.state == twin.bit_generator.state


class TestDeltas:
    def test_identical_models_zero(self):
        real = tiny_net(10)
        fake = real.copy()
        x = np.random.default_rng(11).standard_normal((6, 2))
        d = delta_dm(real, fake, x, 0.4, 1)
        assert np.all(d == 0.0)

    def test_constructed_offset(self):
        v = np.array([0.3, -0.7])
        real = lambda x, tau, cond: np.zeros_like(x)
        fake = lambda x, tau, cond: np.zeros_like(x) + v
        d = delta_dm(real, fake, np.zeros((4, 2)), 0.5, 0)
        np.testing.assert_allclose(d, -v[None, :].repeat(4, axis=0))

    def test_compositional_oracle_bit_exact(self):
        real, fake = tiny_net(12), tiny_net(13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 2))
        d = delta_dm(real, fake, x, 0.7, 2)
        want = net_forward(real, x, 0.7, 2) - net_forward(fake, x, 0.7, 2)
        assert np.array_equal(d, want)

    def test_ca_alpha_one_zero(self):
        real = tiny_net(15)
        x = np.random.default_rng(16).standard_normal((8, 2))
        assert np.all(delta_ca(real, x, 0.2, 3, 1.0) == 0.0)

    def test_ca_alpha_one_evaluates_nothing(self):
        calls = []

        def real(x, tau, cond):
            calls.append(tau)
            return np.ones_like(x)

        d = delta_ca(real, np.zeros((8, 2)), 0.2, 3, 1.0)
        assert calls == []
        assert d.shape == (8, 2) and np.all(d == 0.0)

    def test_dm_fake_is_real_evaluates_nothing(self):
        calls = []

        def real(x, tau, cond):
            calls.append(tau)
            return np.ones_like(x)

        d = delta_dm(real, real, np.zeros((8, 2)), 0.2, 3)
        assert calls == []
        assert d.shape == (8, 2) and np.all(d == 0.0)

    def test_ca_cond_equal_null_row(self):
        real = tiny_net(17)
        real.cond_embed[1] = real.cond_embed[-1]
        x = np.random.default_rng(18).standard_normal((8, 2))
        d = delta_ca(real, x, 0.6, 1, 4.0)
        assert np.all(d == 0.0)

    def test_ca_direct_value(self):
        def real(x, tau, cond):
            cond = np.asarray(cond)
            out = np.zeros((x.shape[0], 2))
            out[:, 0] = np.where(cond == NULL_LABEL, 0.2, 1.0)
            return out

        d = delta_ca(real, np.zeros((3, 2)), 0.5, 0, 5.0)
        np.testing.assert_allclose(d, [[3.2, 0.0]] * 3)

    def test_negative_alpha_rejected(self):
        for alpha in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError,
                               match="^alpha must be finite and >= 0$"):
                delta_ca(tiny_net(19), np.zeros((1, 2)), 0.5, 0, alpha)


class InjectedScores:
    """Constant conditional/unconditional real and fake predictions."""

    def __init__(self, real_cond, real_uncond, fake_cond, dim=1):
        self.a, self.b, self.c = real_cond, real_uncond, fake_cond
        self.dim = dim

    def real(self, x, tau, cond):
        cond = np.asarray(cond)
        val = np.where(cond == NULL_LABEL, self.b, self.a)
        return np.repeat(val[:, None], x.shape[1], axis=1).astype(float)

    def fake(self, x, tau, cond):
        return np.full_like(np.asarray(x, dtype=float), self.c)


class TestDirections:
    def test_algebraic_identity_constant_scores(self):
        # both objective forms give 3.8 for a=1, b=0.2, c=0.4, alpha=5
        inj = InjectedScores(1.0, 0.2, 0.4)
        cfg = base_config(alpha=5.0, mode=Mode.FULL_DMD)
        rng = np.random.default_rng(20)
        gen_out = np.zeros((4, 1))
        direction, tau, _ = dmd_direction_coupled(inj.real, inj.fake, gen_out,
                                                  0.0, np.zeros(4, int), cfg, rng)
        np.testing.assert_allclose(direction.delta_total, 3.8)
        direct = cfg_combine(np.full((4, 1), 1.0), np.full((4, 1), 0.2), 5.0) - 0.4
        np.testing.assert_allclose(direction.delta_total, direct)

    def test_decomposition_identity_random_nets(self):
        # practical form == DM + CA on the same renoised point, < 1e-12
        rng = np.random.default_rng(21)
        worst = 0.0
        for trial in range(100):
            real, fake = tiny_net(100 + trial), tiny_net(200 + trial)
            x_tau = rng.standard_normal((4, 2))
            tau = rng.uniform()
            alpha = rng.uniform(0, 10)
            cond = rng.integers(0, 4, size=4)
            uncond = np.full(4, NULL_LABEL)
            eq3 = (cfg_combine(net_forward(real, x_tau, tau, cond),
                               net_forward(real, x_tau, tau, uncond), alpha)
                   - net_forward(fake, x_tau, tau, cond))
            eq5 = (delta_dm(real, fake, x_tau, tau, cond)
                   + delta_ca(real, x_tau, tau, cond, alpha))
            worst = max(worst, float(np.max(np.abs(eq3 - eq5))))
        assert worst < 1e-12

    def test_reduction_identity_alpha_one(self):
        real, fake = tiny_net(22), tiny_net(23)
        gen_out = np.random.default_rng(24).standard_normal((6, 2))
        cond = np.arange(6) % 4
        full = base_config(alpha=1.0, mode=Mode.FULL_DMD)
        theory = base_config(alpha=1.0, mode=Mode.THEORY_DMD)
        d1, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond, full,
                                       np.random.default_rng(25))
        d2, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond, theory,
                                       np.random.default_rng(25))
        assert np.array_equal(d1.delta_total, d2.delta_total)

    def test_theory_equals_dm_only_any_alpha(self):
        real, fake = tiny_net(26), tiny_net(27)
        gen_out = np.random.default_rng(28).standard_normal((5, 2))
        cond = np.zeros(5, int)
        theory = base_config(alpha=7.0, mode=Mode.THEORY_DMD)
        dm_only = base_config(alpha=7.0, mode=Mode.DM_ONLY)
        d1, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond, theory,
                                       np.random.default_rng(29))
        d2, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond, dm_only,
                                       np.random.default_rng(29))
        assert np.array_equal(d1.delta_total, d2.delta_total)

    def test_component_sum_replay(self):
        # CA_ONLY + DM_ONLY directions sum to FULL under a shared seed
        real, fake = tiny_net(30), tiny_net(31)
        gen_out = np.random.default_rng(32).standard_normal((8, 2))
        cond = np.arange(8) % 4
        totals = {}
        for mode in (Mode.FULL_DMD, Mode.CA_ONLY, Mode.DM_ONLY):
            cfg = base_config(alpha=4.0, mode=mode)
            d, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond, cfg,
                                          np.random.default_rng(33))
            totals[mode] = d.delta_total
        gap = totals[Mode.CA_ONLY] + totals[Mode.DM_ONLY] - totals[Mode.FULL_DMD]
        assert np.max(np.abs(gap)) < 1e-12

    def test_components_always_sum_to_total(self):
        real, fake = tiny_net(34), tiny_net(35)
        gen_out = np.random.default_rng(36).standard_normal((4, 2))
        cond = np.zeros(4, int)
        for mode in Mode:
            for normalizer in (False, True):
                cfg = base_config(alpha=3.0, mode=mode)
                cfg.normalizer_on = normalizer
                d, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond,
                                              cfg, np.random.default_rng(37))
                assert np.array_equal(d.delta_total, d.delta_dm + d.delta_ca)

    def test_coupling_degeneracy_bit_exact(self):
        # schedule (1) through the decoupled path == coupled path, same seed
        real, fake = tiny_net(38), tiny_net(39)
        gen_out = np.random.default_rng(40).standard_normal((6, 2))
        cond = np.arange(6) % 4
        cfg = base_config(alpha=4.0, mode=Mode.FULL_DMD,
                          schedule_policy=SchedulePolicy.COUPLED_SHARED)
        d1, ca1, dm1 = dmd_direction_coupled(real, fake, gen_out, 0.25, cond,
                                             cfg, np.random.default_rng(41))
        d2, ca2, dm2 = dmd_direction_decoupled(real, fake, gen_out, 0.25, cond,
                                               cfg, np.random.default_rng(41))
        assert ca1 == ca2 and dm1 == dm2
        assert np.array_equal(d1.delta_total, d2.delta_total)
        assert np.array_equal(d1.delta_dm, d2.delta_dm)
        assert np.array_equal(d1.delta_ca, d2.delta_ca)

    def test_decoupled_alpha_one_is_pure_dm(self):
        real, fake = tiny_net(42), tiny_net(43)
        gen_out = np.random.default_rng(44).standard_normal((5, 2))
        cond = np.zeros(5, int)
        hybrid = SchedulePolicy.DECOUPLED_HYBRID
        full = base_config(alpha=1.0, mode=Mode.FULL_DMD,
                           schedule_policy=hybrid)
        dm = base_config(alpha=1.0, mode=Mode.DM_ONLY, schedule_policy=hybrid)
        d1, *_ = dmd_direction_decoupled(real, fake, gen_out, 0.5, cond, full,
                                         np.random.default_rng(45))
        d2, *_ = dmd_direction_decoupled(real, fake, gen_out, 0.5, cond, dm,
                                         np.random.default_rng(45))
        assert np.array_equal(d1.delta_total, d2.delta_total)

    def test_hybrid_logged_taus_respect_ranges(self):
        real, fake = tiny_net(46), tiny_net(47)
        gen_out = np.random.default_rng(48).standard_normal((3, 2))
        cond = np.zeros(3, int)
        cfg = base_config(alpha=2.0, mode=Mode.FULL_DMD,
                          schedule_policy=SchedulePolicy.DECOUPLED_HYBRID)
        rng = np.random.default_rng(49)
        for _ in range(1000):
            _, tau_ca, tau_dm = dmd_direction_decoupled(
                real, fake, gen_out, 0.75, cond, cfg, rng)
            assert tau_ca >= 0.75
            assert 0.0 <= tau_dm <= 1.0


class CountingModel:
    """A predictor that logs each call's label kind and noise level under its
    own name."""

    def __init__(self, name, log, scale):
        self.name, self.log, self.scale = name, log, scale

    def __call__(self, x, tau, cond):
        uncond = np.all(np.asarray(cond) == NULL_LABEL)
        self.log.append((self.name, "uncond" if uncond else "cond", tau))
        return self.scale * np.asarray(x) + (0.0 if uncond else 1.0)


class TestDirectionCallCounts:
    """Each term decides its own zero case: a term the mode leaves out, a DM
    term whose fake is the teacher and a CA term at alpha 1 evaluate nothing.
    """

    @pytest.mark.parametrize("fake_is_teacher", [False, True])
    @pytest.mark.parametrize("normalizer", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, 1.4])
    @pytest.mark.parametrize("policy", [SchedulePolicy.COUPLED_SHARED,
                                        SchedulePolicy.DECOUPLED_HYBRID])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_forwards_per_term(self, mode, policy, alpha, normalizer,
                               fake_is_teacher):
        log = []
        real = CountingModel("real", log, 0.5)
        fake = real if fake_is_teacher else CountingModel("fake", log, 0.3)
        cfg = base_config(alpha=alpha, mode=mode, normalizer_on=normalizer,
                          schedule_policy=policy)
        gen_out = np.random.default_rng(50).standard_normal((4, 2))
        d, tau_ca, tau_dm = dmd_direction_decoupled(
            real, fake, gen_out, 0.0, np.arange(4) % 4, cfg,
            np.random.default_rng(51))
        if policy == SchedulePolicy.DECOUPLED_HYBRID:
            assert tau_ca != tau_dm
        dm = mode.uses_dm and not fake_is_teacher
        ca = mode.uses_ca and alpha != 1.0
        # DM: real and fake, conditional, at tau_dm; CA: real, conditional
        # and unconditional, at tau_ca; the normalizer: real, conditional,
        # at tau_dm
        assert sorted(log) == sorted(
            [("real", "cond", tau_dm), ("fake", "cond", tau_dm)] * dm
            + [("real", "cond", tau_ca), ("real", "uncond", tau_ca)] * ca
            + [("real", "cond", tau_dm)] * normalizer)
        assert np.any(d.delta_dm != 0.0) == dm
        assert np.any(d.delta_ca != 0.0) == ca


class TestDirectionFold:
    """One direction function serves all four policies; the coupled entry
    point is the shared-draw case of it, with no tolerance anywhere."""

    @settings(max_examples=120, deadline=None)
    @given(real_seed=st.integers(0, 10_000), fake_seed=st.integers(0, 10_000),
           seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 8.0),
           t=st.sampled_from((0.0, 0.25, 0.5, 0.75)),
           mode=st.sampled_from(list(Mode)), normalizer=st.booleans(),
           policy=st.sampled_from(list(SchedulePolicy)))
    def test_fold_bit_exact(self, real_seed, fake_seed, seed, alpha, t, mode,
                            normalizer, policy):
        real, fake = tiny_net(real_seed), tiny_net(fake_seed)
        data = np.random.default_rng(seed)
        gen_out = data.standard_normal((5, 2))
        cond = data.integers(0, 4, size=5)
        cfg = base_config(alpha=alpha, mode=mode, normalizer_on=normalizer,
                          schedule_policy=policy)
        d, tau_ca, tau_dm = dmd_direction_decoupled(
            real, fake, gen_out, t, cond, cfg, np.random.default_rng(seed))
        assert np.array_equal(d.delta_total, d.delta_ca + d.delta_dm)
        if policy != SchedulePolicy.COUPLED_SHARED:
            return
        c, c_ca, c_dm = dmd_direction_coupled(real, fake, gen_out, t, cond,
                                              cfg, np.random.default_rng(seed))
        assert (c_ca, c_dm) == (tau_ca, tau_dm) and tau_ca == tau_dm
        for name in ("delta_dm", "delta_ca", "delta_total"):
            assert np.array_equal(getattr(c, name), getattr(d, name))
        assert np.array_equal(c.delta_total, c.delta_ca + c.delta_dm)

    @pytest.mark.parametrize("policy", [p for p in SchedulePolicy
                                        if p != SchedulePolicy.COUPLED_SHARED])
    def test_coupled_rejects_other_policies(self, policy):
        gen_out = np.zeros((2, 2))
        with pytest.raises(ValueError, match="COUPLED_SHARED"):
            dmd_direction_coupled(tiny_net(0), tiny_net(1), gen_out, 0.0,
                                  np.zeros(2, int),
                                  base_config(schedule_policy=policy),
                                  np.random.default_rng(0))


class TestProxyLoss:
    def test_zero_direction(self):
        loss, grad = proxy_loss_and_grad(np.ones((3, 2)), np.zeros((3, 2)), 1.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_law(self):
        loss, grad = proxy_loss_and_grad(np.zeros((1, 1)), np.array([[2.0]]), 0.5)
        np.testing.assert_array_equal(grad, [[-2.0]])
        assert loss == 0.25 * 4.0

    def test_exact_law_random(self):
        rng = np.random.default_rng(50)
        g = rng.standard_normal((7, 3))
        d = rng.standard_normal((7, 3))
        lam = 1.7
        loss, grad = proxy_loss_and_grad(g, d, lam)
        np.testing.assert_array_equal(grad, -2.0 * lam * d)
        assert abs(loss - lam * lam * np.sum(d ** 2)) < 1e-12

    def test_finite_difference_with_frozen_target(self):
        rng = np.random.default_rng(51)
        g0 = rng.standard_normal((4, 2))
        d = rng.standard_normal((4, 2))
        lam = 0.8
        target = g0 + lam * d
        _, grad = proxy_loss_and_grad(g0, d, lam)
        h = 1e-6
        for i in range(4):
            for j in range(2):
                gp, gm = g0.copy(), g0.copy()
                gp[i, j] += h
                gm[i, j] -= h
                fd = (np.sum((gp - target) ** 2) - np.sum((gm - target) ** 2)) / (2 * h)
                assert abs(fd - grad[i, j]) / max(abs(fd), 1e-9) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            proxy_loss_and_grad(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)


class TestBackwardSimulate:
    def test_first_step_is_untouched_noise(self):
        def exploding(z, t, cond):
            raise AssertionError("generator must not be called for k=1")

        cond = np.zeros(10, int)
        z = backward_simulate(exploding, (0.0, 0.5), 1, cond,
                              np.random.default_rng(52), dim=2)
        want = np.random.default_rng(52).standard_normal((10, 2))
        assert np.array_equal(z, want)

    def test_constant_generator_closed_form(self):
        c = np.array([1.0, -2.0])
        gen = lambda z, t, cond: np.tile(c, (z.shape[0], 1))
        cond = np.zeros(6, int)
        grid = (0.0, 0.25, 0.5, 0.75)
        z = backward_simulate(gen, grid, 2, cond, np.random.default_rng(53), dim=2)
        replay = np.random.default_rng(53)
        replay.standard_normal((6, 2))  # initial noise
        eps = replay.standard_normal((6, 2))
        np.testing.assert_allclose(z, 0.75 * eps + 0.25 * c, atol=1e-15)

    def test_step_replay_oracle_distribution(self):
        # independent re-implementation with a different seed: marginals match
        params = tiny_net(54)
        grid = (0.0, 0.25, 0.5, 0.75)
        cond = np.zeros(3000, int)
        z = backward_simulate(params, grid, 3, cond, np.random.default_rng(55))

        rng = np.random.default_rng(56)
        cur = rng.standard_normal((3000, 2))
        for j in range(2):
            pred = net_forward(params, cur, grid[j], cond)
            cur = (1 - grid[j + 1]) * rng.standard_normal((3000, 2)) + grid[j + 1] * pred
        d = sliced_wasserstein2(z, cur, 64, np.random.default_rng(57))
        assert d < 0.08

    @pytest.mark.parametrize("k_target", [3, 0, True, 1.0, 1.5])
    def test_bad_k_target_rejected_before_any_draw(self, k_target):
        def gen(z, t, cond):
            raise AssertionError("the generator was evaluated")

        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^k_target must be an integer in "
                           rf"\[1, 2\], got {k_target!r}$"):
            backward_simulate(gen, (0.0, 0.5), k_target, np.zeros(2, int),
                              rng, dim=2)
        assert rng.bit_generator.state == before

    def test_injected_generator_needs_dim(self):
        with pytest.raises(ValueError,
                           match="^dim is required for injected generators$"):
            backward_simulate(lambda z, t, cond: z, (0.0, 0.5), 2,
                              np.zeros(2, int), np.random.default_rng(0))


class TestFakeModelUpdate:
    def make_state(self, teacher, **kw):
        cfg = base_config(**kw)
        return init_distill_state(teacher, cfg, None, seed=7), cfg

    def test_perfect_oracle_no_movement(self):
        c = np.array([0.5, -0.5])
        teacher = zero_net_with_bias(c)
        state, _ = self.make_state(teacher)
        before = state.fake.copy()
        samples = np.tile(c, (12, 1))
        loss = fake_model_update(state, samples, np.zeros(12, int),
                                 np.random.default_rng(60))
        assert loss == 0.0
        for (_, a), (_, b) in zip(state.fake.slots(), before.slots()):
            assert np.array_equal(a, b)

    def test_degenerate_single_point(self):
        teacher = tiny_net(61)
        state, _ = self.make_state(teacher)
        c = np.array([1.0, 2.0])
        samples = np.tile(c, (4, 1))

        class TauOne:
            def uniform(self, lo=0.0, hi=1.0, size=None):
                return 1.0

            def standard_normal(self, shape=None):
                return np.random.default_rng(0).standard_normal(shape)

        pred = net_forward(state.fake, samples, 1.0, 0)
        want = float(np.mean(np.sum((pred - samples) ** 2, axis=1)))
        loss = fake_model_update(state, samples, np.zeros(4, int), TauOne())
        assert abs(loss - want) < 1e-12

    def test_tracks_shifted_gaussian(self):
        # after tracking N(c, 0.09 I) samples, the fake model's own 50-step
        # samples land near that distribution (calibrated bound: observed
        # 0.09, mean-collapse signature ~0.33, raw distance scale ~1.8)
        teacher = tiny_net(62, n_labels=1, hidden=64, n_hidden=3)
        state, _ = self.make_state(teacher, lr_fake=1e-3)
        c = np.array([1.5, -1.0])
        rng = np.random.default_rng(63)
        labels = np.zeros(128, int)
        for _ in range(3000):
            samples = c + 0.3 * rng.standard_normal((128, 2))
            fake_model_update(state, samples, labels, state.rng_fake)
        out = sample_teacher(state.fake, 50, 1.0, 0, 2000,
                             np.random.default_rng(64))
        ref = c + 0.3 * np.random.default_rng(65).standard_normal((2000, 2))
        d = sliced_wasserstein2(out, ref, 64, np.random.default_rng(66))
        assert d < 0.2


class TestMeanVarKl:
    def test_zero_at_targets_exact(self):
        batch = np.array([[1.0, -1.0], [1.0, -1.0]])
        loss, grad = meanvar_kl_loss(batch, 0.0, 1.0)
        assert loss == 0.0

    def test_worked_value(self):
        batch = np.array([[0.9, -0.9]] * 3)  # mean 0, var 0.81 per sample
        loss, _ = meanvar_kl_loss(batch, 0.075, 0.81)
        assert abs(loss - 0.0034722) < 1e-7

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(67)
        targets = (0.1, 0.5)  # (mu, var)
        batch = rng.standard_normal((5, 4))
        loss, grad = meanvar_kl_loss(batch, *targets)
        h = 1e-6
        for i in range(5):
            for j in range(4):
                bp, bm = batch.copy(), batch.copy()
                bp[i, j] += h
                bm[i, j] -= h
                lp, _ = meanvar_kl_loss(bp, *targets)
                lm, _ = meanvar_kl_loss(bm, *targets)
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grad[i, j]) / max(abs(fd), 1e-9) < 1e-6

    def test_variance_clamp_warns(self):
        with pytest.warns(UserWarning):
            meanvar_kl_loss(np.zeros((2, 3)), 0.0, 1.0)

    @pytest.mark.parametrize("var_target", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_var_target_rejected(self, var_target):
        with pytest.raises(ValueError,
                           match="^var_target must be finite and > 0$"):
            meanvar_kl_loss(np.ones((2, 3)), 0.0, var_target)
        for mu_target in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^mu_target must be finite$"):
                meanvar_kl_loss(np.ones((2, 3)), mu_target, 1.0)

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            meanvar_kl_loss(np.zeros((2, 1)), 0.0, 1.0)


class TestGanLosses:
    def test_uninformative_discriminator_values(self):
        disc = zero_net_with_bias(0.0, dim=2, out_dim=1)
        rng = np.random.default_rng(68)
        real = rng.standard_normal((10, 2))
        fake = rng.standard_normal((10, 2))
        disc_loss, _, _, gen_loss = gan_losses(disc, real, fake, np.zeros(10, int))
        assert abs(gen_loss - np.log(2.0)) < 1e-12
        assert abs(disc_loss - 2.0 * np.log(2.0)) < 1e-12

    def test_generator_gradient_finite_difference(self):
        disc = tiny_net(69, out_dim=1)
        rng = np.random.default_rng(70)
        real = rng.standard_normal((4, 2))
        fake = rng.standard_normal((4, 2))
        cond = np.zeros(4, int)
        _, _, gen_grad, _ = gan_losses(disc, real, fake, cond)

        def gen_adv_sum(fb):
            logit = net_forward(disc, fb, 0.0, cond)[:, 0]
            return float(np.sum(np.logaddexp(0.0, -logit)))

        h = 1e-6
        for i in range(4):
            for j in range(2):
                fp, fm = fake.copy(), fake.copy()
                fp[i, j] += h
                fm[i, j] -= h
                fd = (gen_adv_sum(fp) - gen_adv_sum(fm)) / (2 * h)
                assert abs(fd - gen_grad[i, j]) / max(abs(fd), 1e-9) < 1e-5


class TestGeneratorUpdate:
    def test_observer_noninterference_bit_exact(self):
        teacher = tiny_net(71)
        spec = gmm8()
        trajs = {}
        for observer in (False, True):
            cfg = base_config(mode=Mode.CA_ONLY, alpha=4.0, ttur_ratio=3,
                              observer_mode=observer)
            state = init_distill_state(teacher, cfg, spec, seed=99)
            for _ in range(5):
                generator_update(state, teacher, cfg)
            trajs[observer] = state.generator
        for (_, a), (_, b) in zip(trajs[False].slots(), trajs[True].slots()):
            assert np.array_equal(a, b)

    def test_observer_mode_trains_fake(self):
        teacher = tiny_net(72)
        cfg = base_config(mode=Mode.CA_ONLY, ttur_ratio=2, observer_mode=True)
        state = init_distill_state(teacher, cfg, gmm8(), seed=98)
        before = state.fake.copy()
        generator_update(state, teacher, cfg)
        assert any(not np.array_equal(a, b) for (_, a), (_, b)
                   in zip(state.fake.slots(), before.slots()))

    def test_ca_only_skips_fake_updates(self):
        teacher = tiny_net(73)
        cfg = base_config(mode=Mode.CA_ONLY, ttur_ratio=4)
        state = init_distill_state(teacher, cfg, gmm8(), seed=97)
        before = state.fake.copy()
        rec = generator_update(state, teacher, cfg)
        assert rec["loss_fake"] == 0.0
        for (_, a), (_, b) in zip(state.fake.slots(), before.slots()):
            assert np.array_equal(a, b)

    def test_zero_direction_injection_freezes_generator(self):
        # a teacher that predicts what the fake model predicts makes the
        # matching term exactly 0, so the generator's step moves nothing
        cfg = base_config(mode=Mode.DM_ONLY)
        state = init_distill_state(tiny_net(74), cfg, gmm8(), seed=96)
        before = state.generator.copy()

        def teacher(x, tau, cond):
            return net_forward(state.fake, x, tau, cond)

        generator_update(state, teacher, cfg)
        for (_, a), (_, b) in zip(state.generator.slots(), before.slots()):
            assert np.array_equal(a, b)

    def test_untrained_fake_makes_no_dm_forward(self, monkeypatch):
        # at ttur_ratio 0 the fake is the teacher: the DM term is exactly 0
        # without its two forwards, as evaluating a copy of the teacher shows
        forward = net_mod._forward
        calls = []

        def counted(*args, **kw):
            calls.append(1)
            return forward(*args, **kw)

        monkeypatch.setattr(net_mod, "_forward", counted)
        teacher = tiny_net(79)
        cfg = base_config(mode=Mode.FULL_DMD, alpha=1.4, ttur_ratio=0,
                          normalizer_on=True)
        runs = {}
        for copied in (False, True):
            state = init_distill_state(teacher, cfg, gmm8(), seed=89)
            if copied:
                state.fake = teacher.copy()
            calls.clear()
            rec = generator_update(state, teacher, cfg)
            runs[copied] = (len(calls), rec, state.generator.flat.copy())
        (n_same, rec_same, gen_same), (n_copy, rec_copy, gen_copy) = (
            runs[False], runs[True])
        assert n_same == n_copy - 2
        assert rec_same == rec_copy
        assert np.array_equal(gen_same, gen_copy)

    def test_teacher_and_fake_untouched_by_generator_phase(self):
        teacher = tiny_net(75)
        cfg = base_config(mode=Mode.FULL_DMD, ttur_ratio=0,
                          schedule_policy=SchedulePolicy.DECOUPLED_HYBRID)
        state = init_distill_state(teacher, cfg, gmm8(), seed=95)
        teacher_before = teacher.copy()
        fake_before = state.fake.copy()
        for _ in range(3):
            generator_update(state, teacher, cfg)
        for (_, a), (_, b) in zip(teacher.slots(), teacher_before.slots()):
            assert np.array_equal(a, b)
        for (_, a), (_, b) in zip(state.fake.slots(), fake_before.slots()):
            assert np.array_equal(a, b)

    def test_record_repeatable_across_fresh_states(self):
        teacher = tiny_net(76)
        spec = gmm8()
        records = []
        for _ in range(2):
            cfg = base_config(mode=Mode.FULL_DMD,
                              regularizer=Regularizer.MEANVAR_KL,
                              schedule_policy=SchedulePolicy.DECOUPLED_FULL)
            state = init_distill_state(teacher, cfg, spec, seed=1234)
            rec = generator_update(state, teacher, cfg)
            records.append(rec)
        a, b = records
        assert a["loss_proxy"] == b["loss_proxy"]
        assert a["loss_reg"] == b["loss_reg"]
        assert (a["tau_ca"] == b["tau_ca"] and a["tau_dm"] == b["tau_dm"]
                and a["t"] == b["t"])

    def test_record_leaves_distribution_fields_to_the_run_loop(self):
        teacher = tiny_net(76)
        cfg = base_config(mode=Mode.FULL_DMD)
        state = init_distill_state(teacher, cfg, gmm8(), seed=1234)
        rec = generator_update(state, teacher, cfg)
        assert set(rec) == {"iteration", "loss_proxy", "loss_fake",
                            "loss_reg", "tau_ca", "tau_dm", "t"}
        assert np.isfinite(rec["loss_proxy"])

    def test_gan_regularizer_updates_discriminator(self):
        teacher = tiny_net(77)
        cfg = base_config(mode=Mode.CA_ONLY, regularizer=Regularizer.GAN)
        state = init_distill_state(teacher, cfg, gmm8(), seed=94)
        assert state.disc is not None
        disc_before = state.disc.copy()
        rec = generator_update(state, teacher, cfg)
        assert rec["loss_reg"] > 0
        assert any(not np.array_equal(a, b) for (_, a), (_, b)
                   in zip(state.disc.slots(), disc_before.slots()))

    @pytest.mark.parametrize("kw,trained", [
        ({"mode": Mode.CA_ONLY}, False),
        ({"mode": Mode.CA_ONLY, "regularizer": Regularizer.GAN}, False),
        ({"mode": Mode.FULL_DMD, "ttur_ratio": 0}, False),
        ({"mode": Mode.DM_ONLY, "ttur_ratio": 0}, False),
        ({"mode": Mode.CA_ONLY, "observer_mode": True, "ttur_ratio": 0},
         False),
        ({"mode": Mode.FULL_DMD}, True),
        ({"mode": Mode.THEORY_DMD}, True),
        ({"mode": Mode.CA_ONLY, "observer_mode": True}, True),
    ])
    def test_fake_is_its_own_model_only_when_trained(self, kw, trained):
        teacher = tiny_net(81)
        cfg = base_config(**kw)
        state = init_distill_state(teacher, cfg, gmm8(), seed=92)
        assert cfg.trains_fake == trained
        if trained:
            assert state.fake is not teacher
            assert not np.shares_memory(state.fake.flat, teacher.flat)
            assert state.fake_opt is not None
            assert state.fake_opt.m is not state.gen_opt.m
        else:
            assert state.fake is teacher and state.fake_opt is None

    def test_ca_gan_updates_leave_the_teacher_buffer(self):
        # the fake is the teacher object here; nothing may write through it
        teacher = tiny_net(82)
        before = teacher.flat.copy()
        cfg = base_config(mode=Mode.CA_ONLY, regularizer=Regularizer.GAN)
        state = init_distill_state(teacher, cfg, gmm8(), seed=91)
        for _ in range(4):
            generator_update(state, teacher, cfg)
        assert np.array_equal(teacher.flat, before)

    def test_nonfinite_direction_aborts(self):
        teacher = tiny_net(78)
        cfg = base_config(mode=Mode.FULL_DMD)
        state = init_distill_state(teacher, cfg, gmm8(), seed=93)

        def nan_teacher(x, tau, cond):
            return np.full_like(x, np.nan)

        with pytest.raises(NonFiniteError) as err:
            generator_update(state, nan_teacher, cfg)
        assert err.value.context["iteration"] == 1


class TestSampleGenerator:
    def test_single_step_equals_direct_prediction(self):
        params = tiny_net(79)
        cond = np.zeros(50, int)
        out = sample_generator(params, (0.0,), cond, np.random.default_rng(80))
        z = np.random.default_rng(80).standard_normal((50, 2))
        np.testing.assert_array_equal(out, net_forward(params, z, 0.0, cond))


def as_callable(net):
    return lambda x, tau, cond: net_forward(net, x, tau, cond)


class TestNetworkIsPredictor:
    """A network and a callable running net_forward on it are one model."""

    def test_decoupled_direction(self):
        real, fake = tiny_net(81), tiny_net(82)
        gen_out = np.random.default_rng(83).standard_normal((6, 2))
        cond = np.array([0, 1, 2, 3, 0, 1])
        cfg = base_config(alpha=3.0, mode=Mode.FULL_DMD, normalizer_on=True,
                          schedule_policy=SchedulePolicy.DECOUPLED_FULL)
        runs = [dmd_direction_decoupled(r, f, gen_out, 0.0, cond, cfg,
                                        np.random.default_rng(84))
                for r, f in ((real, fake),
                             (as_callable(real), as_callable(fake)))]
        (d_net, *taus_net), (d_fn, *taus_fn) = runs
        for name in ("delta_dm", "delta_ca", "delta_total"):
            assert np.array_equal(getattr(d_net, name), getattr(d_fn, name))
        assert np.array_equal(taus_net, taus_fn)

    def test_backward_simulate(self):
        gen = tiny_net(85)
        cond = np.arange(8) % 4
        grid = (0.0, 0.25, 0.5, 0.75)
        z_net = backward_simulate(gen, grid, 4, cond, np.random.default_rng(86))
        z_fn = backward_simulate(as_callable(gen), grid, 4, cond,
                                 np.random.default_rng(86), dim=2)
        assert np.array_equal(z_net, z_fn)

    def test_model_that_is_not_callable(self):
        x, cond = np.zeros((3, 2)), np.zeros(3, int)
        with pytest.raises(TypeError):
            delta_dm(tiny_net(87), "teacher.ckpt", x, 0.5, cond)
        with pytest.raises(TypeError):
            sample_teacher(object(), 2, 1.0, 0, 3, np.random.default_rng(0),
                           dim=2)


class TestConfigValidation:
    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            DistillConfig(step_grid=(0.1, 0.5)).validate()
        with pytest.raises(ValueError):
            DistillConfig(step_grid=(0.0, 0.5, 0.4)).validate()
        with pytest.raises(ValueError):
            DistillConfig(step_grid=(0.0, 1.0)).validate()
        with pytest.raises(ValueError, match="^step_grid must be strictly "):
            DistillConfig(n_steps=2, step_grid=(0.0, np.nan))
        with pytest.raises(ValueError, match="^step_grid must start at 0$"):
            DistillConfig(step_grid=())
        DistillConfig(n_steps=3, step_grid=(0.0, 0.3, 0.9)).validate()

    def test_grid_length_must_match_n_steps(self):
        for n_steps in (7, 0, 1):
            with pytest.raises(ValueError, match="^n_steps"):
                DistillConfig(n_steps=n_steps, step_grid=(0.0, 0.5)).validate()
        DistillConfig(n_steps=2, step_grid=(0.0, 0.5)).validate()

    @pytest.mark.parametrize("key", ["w_gan", "w_meanvar"])
    def test_weights_non_negative(self, key):
        with pytest.raises(ValueError, match=f"^{key}"):
            DistillConfig(**{key: -1e-3}).validate()
        DistillConfig(**{key: 0.0}).validate()

    @pytest.mark.parametrize("field", [
        "alpha", "lam", "ttur_ratio", "batch", "w_gan", "w_meanvar", "lr_gen",
        "lr_fake"])
    def test_nan_rejected_under_its_key(self, field):
        key = "lambda" if field == "lam" else field
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{key} "):
                DistillConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "alpha", "lam", "w_gan", "w_meanvar", "lr_gen", "lr_fake"])
    def test_non_number_rejected_under_its_key(self, field):
        key = "lambda" if field == "lam" else field
        for value in (None, "x", [0.5]):
            with pytest.raises(ValueError, match=f"^{key} "):
                DistillConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("batch", 2.5), ("batch", 4.0), ("ttur_ratio", 1.5),
        ("batch", True), ("ttur_ratio", False), ("ttur_ratio", True),
        ("n_steps", True), ("n_steps", 2.0),
        ("tau_ca_range", (0.1,)), ("tau_ca_range", (0.1, 0.5, 0.9)),
        ("tau_dm_range", (0.1, 0.5, 0.9))])
    def test_fractional_count_or_bad_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            DistillConfig(**{field: value})

    @pytest.mark.parametrize("field", ["normalizer_on", "observer_mode"])
    def test_switch_must_be_bool(self, field):
        for value in ("no", None, 0, 1, 1.0, np.int64(1)):
            with pytest.raises(ValueError,
                               match=f"^{field} must be true or false$"):
                DistillConfig(**{field: value})
        for value in (False, np.bool_(True)):
            assert getattr(DistillConfig(**{field: value}), field) == value

    def test_numpy_integer_counts_accepted(self):
        cfg = DistillConfig(batch=np.int64(4), ttur_ratio=np.int32(2),
                            n_steps=np.int64(2))
        assert (cfg.batch, cfg.ttur_ratio, cfg.grid) == (4, 2, (0.0, 0.5))

    def test_default_grids(self):
        assert DistillConfig(n_steps=1).grid == (0.0,)
        assert DistillConfig(n_steps=2).grid == (0.0, 0.5)
        assert DistillConfig(n_steps=4).grid == (0.0, 0.25, 0.5, 0.75)
        with pytest.raises(ValueError):
            DistillConfig(n_steps=3).validate()

    def test_meanvar_targets_are_the_data_moments(self):
        spec = gmm8()
        cfg = base_config(regularizer=Regularizer.MEANVAR_KL)
        state = init_distill_state(tiny_net(200), cfg, spec, seed=1)
        assert state.reg_targets == [expected_sample_stats(spec, label)
                                     for label in range(spec.label_count)]

    def test_meanvar_without_spec_rejected(self):
        cfg = base_config(regularizer=Regularizer.MEANVAR_KL)
        with pytest.raises(ValueError, match="^MEANVAR_KL regularizer needs "
                           "a data spec for its moment targets$"):
            init_distill_state(tiny_net(202), cfg, None, seed=3)

    @pytest.mark.parametrize("regularizer", [Regularizer.NONE,
                                             Regularizer.GAN])
    def test_moment_targets_only_for_meanvar(self, regularizer):
        cfg = base_config(regularizer=regularizer)
        state = init_distill_state(tiny_net(203), cfg, gmm8(), seed=4)
        assert state.reg_targets == []

    def test_gan_without_spec_rejected(self):
        cfg = base_config(regularizer=Regularizer.GAN)
        with pytest.raises(ValueError, match="^GAN regularizer needs a data "
                           "spec for real batches$"):
            init_distill_state(tiny_net(204), cfg, None, seed=5)


class TestObserverProbe:
    def test_identical_models_zero_everywhere(self):
        teacher = tiny_net(81)
        cfg = base_config()
        state = init_distill_state(teacher, cfg, gmm8(), seed=92)
        pts = np.random.default_rng(82).standard_normal((20, 2))
        rows = observer_probe(state, teacher, pts, [0.1, 0.5, 0.9], 0,
                              artifact_dir=np.array([1.0, 0.0]),
                              rng=np.random.default_rng(83))
        assert len(rows) == 3
        for _, mag, align in rows:
            assert mag == 0.0
            assert align == 0.0

    def test_untrained_fake_evaluates_nothing(self, monkeypatch):
        teacher = tiny_net(80)
        cfg = base_config(mode=Mode.CA_ONLY, observer_mode=True, ttur_ratio=0)
        state = init_distill_state(teacher, cfg, gmm8(), seed=92)

        def no_forward(*args, **kw):
            raise AssertionError("the probe ran a forward")

        monkeypatch.setattr(net_mod, "_forward", no_forward)
        rows = observer_probe(state, teacher, np.ones((20, 2)), [0.1, 0.9], 0,
                              artifact_dir=np.array([1.0, 0.0]),
                              rng=np.random.default_rng(83))
        assert [r[1:] for r in rows] == [(0.0, 0.0)] * 2

    def test_bias_correction_alignment(self):
        # observer tracking a +v biased generator: DM term opposes the bias
        teacher = tiny_net(84, n_labels=1, hidden=32, n_hidden=2)
        cfg = base_config(lr_fake=2e-3)
        state = init_distill_state(teacher, cfg, None, seed=91)
        v = np.array([2.0, 2.0])
        rng = np.random.default_rng(85)
        labels = np.zeros(128, int)
        for _ in range(600):
            z = rng.standard_normal((128, 2))
            biased = net_forward(state.generator, z, 0.0, labels) + v
            fake_model_update(state, biased, labels, state.rng_fake)
        z = rng.standard_normal((256, 2))
        probe = net_forward(state.generator, z, 0.0, 0) + v
        rows = observer_probe(state, teacher, probe, [0.5], 0, artifact_dir=v,
                              rng=np.random.default_rng(86))
        assert rows[0][2] < 0.0

    def test_row_count(self):
        teacher = tiny_net(87)
        state = init_distill_state(teacher, base_config(), gmm8(), seed=90)
        taus = np.linspace(0.05, 0.95, 7)
        rows = observer_probe(state, teacher, np.zeros((5, 2)), taus, 1,
                              artifact_dir=np.zeros(2),
                              rng=np.random.default_rng(88))
        assert len(rows) == 7
