import dataclasses
import platform
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmdlab import (NULL_LABEL, NetConfig, NetParams, init_params, net_forward,
                    net_forward_cached, net_backward, zeros_like_params,
                    init_adam, adam_step, ema_update, save_params, load_params)
from dmdlab.distill import DistillConfig, fake_model_update, init_distill_state
from dmdlab.net import NonFiniteError, _sigmoid, slot_shapes

from conftest import checkpoint_bytes, v1_checkpoint_bytes


def small_config(dim=2, n_labels=3, hidden=8, n_hidden=2, out_dim=None):
    return NetConfig(dim=dim, n_labels=n_labels, hidden=hidden,
                     n_hidden=n_hidden, out_dim=out_dim, cond_dim=4,
                     temb_dim=5, n_freq=3)


def _header(version=2, extra=0, **fields) -> bytes:
    """The checkpoint of a small_config network with zero data: its header
    with version and fields set, then its data padded (extra > 0) or cut
    (extra < 0) by extra bytes."""
    cfg = small_config()
    n = init_params(cfg, np.random.default_rng(0)).flat.size
    # the fields go straight into the header: NetConfig would reject a zero
    header = {**dataclasses.asdict(cfg), **fields}
    buf = checkpoint_bytes(tuple(header.values()), n, version) + bytes(
        max(extra, 0))
    return buf[:len(buf) + extra] if extra < 0 else buf


V1_FILE = v1_checkpoint_bytes(init_params(small_config(),
                                          np.random.default_rng(0)))


def oracle_forward(params, x, tau, cond):
    """Independent re-implementation: per-sample loops, no shared helpers."""
    cfg = params.config
    out = np.zeros((x.shape[0], cfg.out_dim))
    for i in range(x.shape[0]):
        t = float(np.atleast_1d(tau)[i] if np.ndim(tau) else tau)
        c = int(np.atleast_1d(cond)[i] if np.ndim(cond) else cond)
        row = cfg.n_labels if c == NULL_LABEL else c
        feats = []
        for f in params.time_freqs:
            feats.append(np.sin(2 * np.pi * f * t))
        for f in params.time_freqs:
            feats.append(np.cos(2 * np.pi * f * t))
        temb = params.time_w.T @ np.array(feats) + params.time_b
        h = np.concatenate([x[i], temb, params.cond_embed[row]])
        for layer in range(cfg.n_hidden):
            z = params.weights[layer].T @ h + params.biases[layer]
            h = z / (1.0 + np.exp(-z))
        out[i] = params.weights[-1].T @ h + params.biases[-1]
    return out


def assert_slots_view_flat(params):
    """Every slot is the next stretch of params.flat, in declaration order."""
    start = params.flat.__array_interface__["data"][0]
    off = 0
    for name, a in params.slots():
        assert a.base is params.flat, name
        assert a.__array_interface__["data"][0] == start + off * a.itemsize, name
        off += a.size
    assert off == params.flat.size


def loss_value(params, x, tau, cond, upstream):
    return float(np.sum(net_forward(params, x, tau, cond) * upstream))


def fd_grad_slot(params, arr, idx, x, tau, cond, upstream, h=1e-5):
    old = arr[idx]
    arr[idx] = old + h
    up = loss_value(params, x, tau, cond, upstream)
    arr[idx] = old - h
    dn = loss_value(params, x, tau, cond, upstream)
    arr[idx] = old
    return (up - dn) / (2 * h)


class TestForward:
    def test_params_call_is_net_forward(self):
        rng = np.random.default_rng(3)
        params = init_params(small_config(), rng)
        x = rng.standard_normal((6, 2))
        tau = rng.uniform(0, 1, size=6)
        cond = np.array([0, 1, 2, NULL_LABEL, 1, 0])
        assert np.array_equal(params(x, tau, cond),
                              net_forward(params, x, tau, cond))

    def test_zero_network_outputs_zero(self):
        rng = np.random.default_rng(0)
        params = init_params(small_config(), rng)
        for _, a in params.slots():
            a[:] = 0.0
        x = rng.standard_normal((5, 2))
        assert np.all(net_forward(params, x, 0.3, 1) == 0.0)

    def test_identity_single_linear_layer(self):
        # n_hidden=0 degenerates to one linear map; identity on the x block
        # with zeroed embeddings must pass x through untouched.
        cfg = small_config(dim=3, n_hidden=0)
        rng = np.random.default_rng(1)
        params = init_params(cfg, rng)
        for _, a in params.slots():
            a[:] = 0.0
        params.weights[0][:cfg.dim, :] = np.eye(3)
        x = rng.standard_normal((4, 3))
        y = net_forward(params, x, 0.5, NULL_LABEL)
        np.testing.assert_array_equal(y, x)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            cfg = small_config(dim=int(rng.integers(1, 4)),
                               n_labels=int(rng.integers(1, 5)),
                               hidden=int(rng.integers(3, 10)),
                               n_hidden=int(rng.integers(1, 4)))
            params = init_params(cfg, rng)
            n = int(rng.integers(1, 6))
            x = rng.standard_normal((n, cfg.dim))
            tau = rng.uniform(0, 1, size=n)
            cond = rng.integers(-1, cfg.n_labels, size=n)
            got = net_forward(params, x, tau, cond)
            want = oracle_forward(params, x, tau, cond)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        params = init_params(small_config(), rng)
        x = rng.standard_normal((7, 2))
        a = net_forward(params, x, 0.25, 0)
        b = net_forward(params, x, 0.25, 0)
        assert np.array_equal(a, b)

    def test_null_condition_uses_reserved_row_only(self):
        rng = np.random.default_rng(4)
        params = init_params(small_config(), rng)
        x = rng.standard_normal((6, 2))
        base = net_forward(params, x, 0.7, NULL_LABEL)
        params.cond_embed[0] += 10.0  # real label rows must not matter
        params.cond_embed[2] -= 3.0
        after = net_forward(params, x, 0.7, NULL_LABEL)
        assert np.array_equal(base, after)
        params.cond_embed[-1] += 1.0  # the reserved row must matter
        changed = net_forward(params, x, 0.7, NULL_LABEL)
        assert not np.array_equal(base, changed)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_input_is_read_as_float64(self, dtype):
        # an integer x used to truncate the noise level to 0, and a float32
        # x rounded the time embedding to float32
        rng = np.random.default_rng(39)
        params = init_params(small_config(), rng)
        x = rng.integers(-3, 4, size=(6, 2)).astype(dtype)
        cond = np.array([0, 1, 2, NULL_LABEL, 0, 1])
        want = net_forward(params, x.astype(np.float64), 0.7, cond)
        assert np.array_equal(net_forward(params, x, 0.7, cond), want)
        assert not np.array_equal(want, net_forward(params, x, 0.0, cond))

    def test_input_validation(self):
        rng = np.random.default_rng(5)
        params = init_params(small_config(), rng)
        with pytest.raises(ValueError):
            net_forward(params, np.zeros((2, 5)), 0.5, 0)
        with pytest.raises(ValueError):
            net_forward(params, np.array([[np.nan, 0.0]]), 0.5, 0)
        with pytest.raises(ValueError):
            net_forward(params, np.zeros((2, 2)), 1.5, 0)
        with pytest.raises(ValueError):
            net_forward(params, np.zeros((2, 2)), 0.5, 99)
        for tau in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError,
                               match=r"^noise_level must lie in \[0, 1\]$"):
                net_forward(params, np.zeros((2, 2)), tau, 0)
        for cond in (np.array([0, 2.7]), 1.5, np.array([0.0, np.nan])):
            with pytest.raises(ValueError, match="^cond labels must be integers$"):
                net_forward(params, np.zeros((2, 2)), 0.5, cond)
        with pytest.raises(ValueError, match=r"^noise_level must be scalar "
                           r"or shape \(2,\), got \(3,\)$"):
            net_forward(params, np.zeros((2, 2)), np.full(3, 0.5), 0)
        with pytest.raises(ValueError, match=r"^cond must be scalar or shape "
                           r"\(2,\), got \(2, 1\)$"):
            net_forward(params, np.zeros((2, 2)), 0.5, np.zeros((2, 1), int))

    def test_integer_valued_float_labels_accepted(self):
        params = init_params(small_config(), np.random.default_rng(6))
        x = np.random.default_rng(7).standard_normal((3, 2))
        assert np.array_equal(
            net_forward(params, x, 0.5, np.array([0.0, 1.0, NULL_LABEL])),
            net_forward(params, x, 0.5, np.array([0, 1, NULL_LABEL])))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(6)
        params = init_params(small_config(), rng)
        x = rng.standard_normal((3, 2))
        _, cache = net_forward_cached(params, x, 0.4, 1)
        grads = net_backward(params, cache, np.zeros((3, 2)))
        for _, g in grads.slots():
            assert np.all(g == 0.0)

    def test_linear_layer_outer_product(self):
        # n_hidden=0: dW on the x block is exactly the outer product x^T u.
        cfg = small_config(dim=2, n_hidden=0)
        rng = np.random.default_rng(7)
        params = init_params(cfg, rng)
        x = rng.standard_normal((4, 2))
        u = rng.standard_normal((4, 2))
        _, cache = net_forward_cached(params, x, 0.9, 2)
        grads = net_backward(params, cache, u)
        np.testing.assert_allclose(grads.weights[0][:cfg.dim, :], x.T @ u,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(grads.biases[0], u.sum(axis=0),
                                   rtol=0, atol=1e-14)

    def test_finite_difference_full_net(self):
        rng = np.random.default_rng(8)
        cfg = small_config()
        params = init_params(cfg, rng)
        x = rng.standard_normal((3, cfg.dim))
        tau = rng.uniform(0, 1, size=3)
        cond = np.array([0, NULL_LABEL, 2])
        u = rng.standard_normal((3, cfg.out_dim))
        _, cache = net_forward_cached(params, x, tau, cond)
        grads = net_backward(params, cache, u)
        for (name, arr), (_, g) in zip(params.slots(), grads.slots()):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in range(flat.size):
                idx = np.unravel_index(k, arr.shape)
                fd = fd_grad_slot(params, arr, idx, x, tau, cond, u)
                denom = max(abs(fd), abs(gflat[k]), 1e-8)
                assert abs(fd - gflat[k]) / denom < 1e-5, (name, idx)

    def test_gradcheck_many_random_configs(self):
        # invariant: relative error < 1e-5 across >= 100 random configurations,
        # probing a random subset of slots in each.
        rng = np.random.default_rng(9)
        for trial in range(100):
            cfg = small_config(dim=int(rng.integers(1, 4)),
                               n_labels=int(rng.integers(1, 4)),
                               hidden=int(rng.integers(3, 8)),
                               n_hidden=int(rng.integers(1, 4)))
            params = init_params(cfg, rng)
            n = int(rng.integers(1, 4))
            x = rng.standard_normal((n, cfg.dim))
            tau = rng.uniform(0, 1, size=n)
            cond = rng.integers(-1, cfg.n_labels, size=n)
            u = rng.standard_normal((n, cfg.out_dim))
            _, cache = net_forward_cached(params, x, tau, cond)
            grads = net_backward(params, cache, u)
            slot_list = list(params.slots())
            grad_list = list(grads.slots())
            for _ in range(6):
                si = int(rng.integers(len(slot_list)))
                name, arr = slot_list[si]
                _, g = grad_list[si]
                idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
                fd = fd_grad_slot(params, arr, idx, x, tau, cond, u)
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                assert abs(fd - g[idx]) / denom < 1e-5, (trial, name, idx)

    def test_input_gradient(self):
        rng = np.random.default_rng(10)
        cfg = small_config()
        params = init_params(cfg, rng)
        x = rng.standard_normal((2, cfg.dim))
        u = rng.standard_normal((2, cfg.out_dim))
        _, cache = net_forward_cached(params, x, 0.3, 0)
        dx = net_backward(params, cache, u, input_grad=True)
        h = 1e-6
        for i in range(2):
            for j in range(cfg.dim):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (loss_value(params, xp, 0.3, 0, u)
                      - loss_value(params, xm, 0.3, 0, u)) / (2 * h)
                assert abs(fd - dx[i, j]) / max(abs(fd), 1e-8) < 1e-4

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(11)
        params = init_params(small_config(), rng)
        x = rng.standard_normal((3, 2))
        _, cache = net_forward_cached(params, x, 0.2, 0)
        with pytest.raises(ValueError):
            net_backward(params, cache, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            net_backward(params, None, np.zeros((3, 2)))


class TestAdam:
    def test_zero_grad_leaves_params(self):
        rng = np.random.default_rng(12)
        params = init_params(small_config(), rng)
        before = params.copy()
        state = init_adam(params, lr=1e-3)
        adam_step(state, params, zeros_like_params(params))
        for (_, a), (_, b) in zip(params.slots(), before.slots()):
            assert np.array_equal(a, b)
        assert state.step == 1

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(13)
        params = init_params(small_config(), rng)
        p0 = params.weights[0][0, 0]
        grads = zeros_like_params(params)
        grads.weights[0][0, 0] = 0.5
        state = init_adam(params, lr=1e-3)
        adam_step(state, params, grads)
        delta = params.weights[0][0, 0] - p0
        expected = -1e-3 * (0.5 / (0.5 + 1e-8))
        assert abs(delta - expected) < 1e-15

    def test_moment_recursion_closed_form(self):
        rng = np.random.default_rng(14)
        params = init_params(small_config(), rng)
        g = 0.7
        grads = zeros_like_params(params)
        grads.biases[0][1] = g
        state = init_adam(params, lr=1e-3)
        adam_step(state, params, grads)
        adam_step(state, params, grads)
        b1, b2 = 0.9, 0.999
        assert abs(state.m.biases[0][1] - (1 - b1 ** 2) * g) < 1e-15
        assert abs(state.v.biases[0][1] - (1 - b2 ** 2) * g * g) < 1e-15

    def test_nonfinite_grads_rejected(self):
        rng = np.random.default_rng(15)
        params = init_params(small_config(), rng)
        grads = zeros_like_params(params)
        grads.weights[0][0, 0] = np.inf
        state = init_adam(params, lr=1e-3)
        with pytest.raises(ValueError):
            adam_step(state, params, grads)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        params = init_params(small_config(), rng)
        grads = zeros_like_params(init_params(small_config(hidden=4), rng))
        with pytest.raises(ValueError,
                           match="^gradient/parameter shape mismatch$"):
            adam_step(init_adam(params, lr=1e-3), params, grads)

    def test_overflowing_square_rejected_before_any_change(self):
        # 1e200 is finite, but its square is not: v would become inf and
        # freeze the parameter
        rng = np.random.default_rng(40)
        params = init_params(small_config(), rng)
        state = init_adam(params, lr=1e-3)
        grads = zeros_like_params(params)
        grads.flat[:] = rng.standard_normal(grads.flat.size)
        adam_step(state, params, grads)
        before = (params.flat.copy(), state.m.flat.copy(), state.v.flat.copy())
        for sign in (1.0, -1.0):
            grads.biases[0][1] = sign * 1e200
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError):
                    adam_step(state, params, grads)
            assert state.step == 1
            for got, want in zip((params.flat, state.m.flat, state.v.flat),
                                 before):
                assert np.array_equal(got, want)

    def test_nonfinite_names_first_slot(self):
        rng = np.random.default_rng(41)
        params = init_params(small_config(), rng)
        for slot, value in [("w0", np.nan), ("b1", 1e200),
                            ("cond_embed", -np.inf), ("time_b", np.inf)]:
            grads = zeros_like_params(params)
            dict(grads.slots())[slot].flat[-1] = value
            grads.time_b[-1] = np.inf  # a later slot must not be reported
            with pytest.raises(NonFiniteError) as err:
                adam_step(init_adam(params, lr=1e-3), params, grads)
            assert err.value.context == {"slot": slot}


class TestEma:
    def test_endpoints_and_midpoint(self):
        rng = np.random.default_rng(16)
        live = init_params(small_config(), rng)
        ema = live.copy()
        for _, a in ema.slots():
            a[:] = 0.0
        live2 = live.copy()
        for _, a in live2.slots():
            a[:] = 2.0

        frozen = ema.copy()
        ema_update(ema, live2, 1.0)
        for (_, a), (_, b) in zip(ema.slots(), frozen.slots()):
            assert np.array_equal(a, b)

        ema_update(ema, live2, 0.0)
        for _, a in ema.slots():
            assert np.all(a == 2.0)

        for _, a in ema.slots():
            a[:] = 0.0
        ema_update(ema, live2, 0.5)
        for _, a in ema.slots():
            assert np.all(a == 1.0)

    def test_decay_range_checked(self):
        rng = np.random.default_rng(17)
        p = init_params(small_config(), rng)
        with pytest.raises(ValueError):
            ema_update(p.copy(), p, 1.5)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        p = init_params(small_config(), rng)
        with pytest.raises(ValueError, match="^ema/live shape mismatch$"):
            ema_update(p, init_params(small_config(hidden=4), rng), 0.5)


class TestNetConfig:
    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("hidden", 0), ("n_labels", 0), ("dim", 2.5),
        ("dim", True), ("out_dim", 0), ("n_freq", -1), ("n_hidden", -1),
        ("n_hidden", 1.0), ("cond_dim", None)])
    def test_bad_size_rejected(self, field, value):
        kind = "non-negative" if field == "n_hidden" else "positive"
        with pytest.raises(ValueError, match=f"^{field} must be a {kind} "
                           f"integer, got {value!r}$"):
            NetConfig(**{"dim": 2, "n_labels": 4, field: value})

    def test_numpy_integers_and_no_hidden_layer_accepted(self):
        cfg = NetConfig(dim=np.int64(3), n_labels=np.int32(4), n_hidden=0)
        assert (cfg.out_dim, cfg.n_hidden) == (3, 0)

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(0, 3), min_size=8, max_size=8))
    @example(sizes=[0, 4, 8, 1, 2, 2, 2, 2])
    @example(sizes=[2, 0, 8, 1, 2, 2, 2, 2])
    @example(sizes=[2, 4, 0, 1, 2, 2, 2, 2])
    @example(sizes=[2, 4, 8, 0, 2, 2, 2, 2])
    def test_a_config_that_constructs_saves_and_loads(self, sizes):
        # a config either fails to construct, naming its first bad field,
        # or saves a checkpoint that load_params reads back
        try:
            cfg = NetConfig(*sizes)
        except ValueError as err:
            names = [f.name for f in dataclasses.fields(NetConfig)]
            first_bad = next(name for name, v in zip(names, sizes)
                             if v < (name != "n_hidden"))
            assert str(err).startswith(f"{first_bad} must be a ")
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.ckpt"
            save_params(init_params(cfg, np.random.default_rng(0)), path)
            assert load_params(path).config == cfg


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(18)
        params = init_params(small_config(dim=3, n_labels=5, hidden=11,
                                          n_hidden=3, out_dim=1), rng)
        path = tmp_path / "net.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.config == params.config
        for (n1, a), (n2, b) in zip(params.slots(), loaded.slots()):
            assert n1 == n2
            assert np.array_equal(a, b)
        assert path.read_bytes()[:4] == b"DMDL"

    def test_float32_not_saved(self, tmp_path):
        # the lab is fp64-only, so a file has no precision to declare
        params = init_params(small_config(), np.random.default_rng(19))
        params32 = NetParams(params.config, params.flat.astype(np.float32))
        path = tmp_path / "net32.ckpt"
        with pytest.raises(ValueError, match="float64"):
            save_params(params32, path)
        assert not path.exists()

    @pytest.mark.parametrize("buf,match", [
        (V1_FILE, "unsupported version 1 "),
        (_header(version=3), "unsupported version 3 "),
        (_header()[:39], "truncated header"),
        *[(_header(**{name: 0}), f"{name} must be a positive integer, got 0$")
          for name in ("dim", "n_labels", "hidden", "out_dim", "cond_dim",
                       "temb_dim", "n_freq")],
        (_header(n_hidden=2 ** 32 - 1), "n_hidden 4294967295 needs more"),
        (_header(extra=-8), "flat buffer has shape"),
        (_header(extra=8), "flat buffer has shape"),
        (_header(extra=4), "multiple of element size"),
    ], ids=["version_1", "version_3", "truncated", "dim_0", "n_labels_0",
            "hidden_0", "out_dim_0", "cond_dim_0", "temb_dim_0", "n_freq_0",
            "huge_n_hidden", "short_data", "long_data", "ragged_data"])
    def test_rejection_names_file(self, tmp_path, buf, match):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(buf)
        with pytest.raises(ValueError, match=match) as err:
            load_params(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_params(path)


def exp_sigmoid(z):
    """The earlier exp form of the logistic function, as a reference."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestSigmoid:
    def test_matches_exp_form(self):
        rng = np.random.default_rng(30)
        z = np.concatenate([10.0 * rng.standard_normal(100_000),
                            rng.uniform(-800, 800, size=1000),
                            [1e308, -1e308, 745.0, -745.0, 0.0]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = _sigmoid(z)
        assert np.max(np.abs(got - exp_sigmoid(z))) <= 1e-15
        assert (got[-5], got[-4], got[-1]) == (1.0, 0.0, 0.5)

    def test_zero_is_half(self):
        assert _sigmoid(0) == 0.5
        assert _sigmoid(np.zeros((3, 4))).tolist() == [[0.5] * 4] * 3

    def test_fresh_buffer(self):
        z = np.linspace(-3, 3, 12).reshape(3, 4)
        before = z.copy()
        s = _sigmoid(z)
        assert not np.shares_memory(s, z)
        assert np.array_equal(z, before)


class TestFlatLayout:
    def test_slots_view_flat(self, tmp_path):
        params = init_params(small_config(n_hidden=3, out_dim=1),
                             np.random.default_rng(31))
        assert_slots_view_flat(params)
        assert_slots_view_flat(params.copy())
        assert_slots_view_flat(zeros_like_params(params))
        save_params(params, tmp_path / "p.ckpt")
        assert_slots_view_flat(load_params(tmp_path / "p.ckpt"))

    def test_copy_is_independent(self):
        params = init_params(small_config(), np.random.default_rng(32))
        dup = params.copy()
        dup.weights[0][0, 0] += 1.0
        assert dup.weights[0][0, 0] != params.weights[0][0, 0]

    def test_backward_grads_view_flat(self):
        rng = np.random.default_rng(33)
        params = init_params(small_config(), rng)
        _, cache = net_forward_cached(params, rng.standard_normal((4, 2)),
                                      0.3, 1)
        assert_slots_view_flat(net_backward(params, cache,
                                            rng.standard_normal((4, 2))))

    def test_wrong_size_rejected(self):
        cfg = small_config()
        n = init_params(cfg, np.random.default_rng(34)).flat.size
        with pytest.raises(ValueError, match=r"^flat buffer has shape "
                           rf"\({n + 1},\), the config needs \({n},\)$"):
            NetParams(cfg, np.zeros(n + 1))

    def test_config_and_flat_make_every_slot(self):
        cfg = small_config(n_hidden=3, out_dim=1)
        flat = np.zeros(sum(np.prod(s, dtype=int) for s in slot_shapes(cfg)))
        params = NetParams(cfg, flat)
        fields = [f.name for f in dataclasses.fields(NetParams)]
        assert fields == ["config", "flat"]
        assert [a.shape for _, a in params.slots()] == slot_shapes(cfg)
        flat[:] = np.arange(flat.size)
        off = 0
        for _, a in params.slots():
            assert np.array_equal(a.ravel(), np.arange(off, off + a.size))
            off += a.size
        with pytest.raises(TypeError):
            NetParams(cfg, flat, params.weights, params.biases,
                      params.cond_embed, params.time_freqs, params.time_w,
                      params.time_b)


def reference_adam(state, params, grads):
    """Per-slot Adam as the optimizer computed it before the flat buffer."""
    state.step += 1
    b1, b2 = 0.9, 0.999
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for (_, p), (_, g), (_, m), (_, v) in zip(params.slots(), grads.slots(),
                                              state.m.slots(), state.v.slots()):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def reference_ema(ema, live, decay):
    for (_, e), (_, p) in zip(ema.slots(), live.slots()):
        e *= decay
        e += (1.0 - decay) * p


class TestFlatBitExact:
    def test_adam_matches_per_slot_reference(self):
        rng = np.random.default_rng(35)
        params = init_params(small_config(n_hidden=3), rng)
        ref = params.copy()
        state, ref_state = init_adam(params, lr=3e-3), init_adam(ref, lr=3e-3)
        for _ in range(6):
            grads = zeros_like_params(params)
            grads.flat[:] = rng.standard_normal(grads.flat.size)
            adam_step(state, params, grads)
            reference_adam(ref_state, ref, grads)
            for got, want in ((params, ref), (state.m, ref_state.m),
                              (state.v, ref_state.v)):
                assert all(np.array_equal(a, b) for (_, a), (_, b)
                           in zip(got.slots(), want.slots()))
        assert state.step == ref_state.step == 6

    def test_ema_matches_per_slot_reference(self):
        rng = np.random.default_rng(36)
        live = init_params(small_config(), rng)
        ema = zeros_like_params(live)
        ref = ema.copy()
        for decay in (0.9, 0.99, 0.5, 0.999):
            live.flat[:] = rng.standard_normal(live.flat.size)
            ema_update(ema, live, decay)
            reference_ema(ref, live, decay)
            assert np.array_equal(ema.flat, ref.flat)


class TestNonFinite:
    def test_error_type(self):
        import dmdlab.distill
        assert dmdlab.distill.NonFiniteError is NonFiniteError
        assert issubclass(NonFiniteError, ValueError)

    def test_forward_backward_adam_raise_it(self):
        rng = np.random.default_rng(37)
        params = init_params(small_config(), rng)
        x = rng.standard_normal((3, 2))
        with pytest.raises(NonFiniteError):
            net_forward(params, np.array([[np.inf, 0.0]]), 0.5, 0)
        _, cache = net_forward_cached(params, x, 0.5, 0)
        with pytest.raises(NonFiniteError):
            net_backward(params, cache, np.full((3, 2), np.nan))
        grads = zeros_like_params(params)
        grads.time_b[0] = np.nan
        with pytest.raises(NonFiniteError):
            adam_step(init_adam(params, lr=1e-3), params, grads)
        bad = params.copy()
        bad.weights[0][0, 0] = np.inf
        with pytest.raises(NonFiniteError), np.errstate(invalid="ignore"):
            net_forward(bad, x, 0.5, 0)

    def test_error_carries_the_failing_params(self):
        # the run's diagnostic dump names the network from these
        rng = np.random.default_rng(38)
        params = init_params(small_config(), rng)
        bad = params.copy()
        bad.weights[0][0, 0] = np.inf
        x = rng.standard_normal((3, 2))
        _, cache = net_forward_cached(params, x, 0.5, 0)
        grads = zeros_like_params(params)
        grads.time_b[0] = np.nan
        for net, fail in [
                (params, lambda: net_forward(params, x * np.inf, 0.5, 0)),
                (bad, lambda: net_forward_cached(bad, x, 0.5, 0)),
                (params, lambda: net_backward(params, cache,
                                              np.full((3, 2), np.nan))),
                (params, lambda: adam_step(init_adam(params, lr=1e-3),
                                           params, grads))]:
            with pytest.raises(NonFiniteError) as err, \
                    np.errstate(invalid="ignore"):
                fail()
            assert err.value.params is net


@pytest.mark.skipif(platform.system() != "Linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap setting is glibc's mallopt")
def test_fake_model_updates_do_not_fault():
    # importing dmdlab keeps freed heap memory in the process, so a warm
    # training step reuses its pages instead of faulting them in again
    import resource

    rng = np.random.default_rng(38)
    teacher = init_params(NetConfig(dim=2, n_labels=4), rng)
    state = init_distill_state(teacher, DistillConfig(batch=128), None, seed=0)
    samples = rng.standard_normal((128, 2))
    cond = rng.integers(0, 4, size=128)
    for _ in range(5):
        fake_model_update(state, samples, cond, state.rng_fake)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        fake_model_update(state, samples, cond, state.rng_fake)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50


_NET_CONFIGS = st.builds(
    NetConfig, dim=st.integers(1, 4), n_labels=st.integers(1, 5),
    hidden=st.integers(1, 9), n_hidden=st.integers(1, 3),
    out_dim=st.none() | st.integers(1, 3), cond_dim=st.integers(1, 5),
    temb_dim=st.integers(1, 5), n_freq=st.integers(1, 4))


@st.composite
def _edited_checkpoints(draw):
    """A drawn network's checkpoint after one to three edits: set the version
    or one NetConfig field, or cut or pad the file by up to 20 bytes."""
    cfg = draw(_NET_CONFIGS)
    n = init_params(cfg, np.random.default_rng(0)).flat.size
    buf = bytearray(checkpoint_bytes(dataclasses.astuple(cfg), n))
    values = st.sampled_from([0, 1, 2, 2 ** 32 - 1]) | st.integers(0, 12)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            struct.pack_into("<I", buf, 4 * draw(st.integers(1, 9)),
                             draw(values))
        else:
            cut = draw(st.integers(-20, 20))
            buf = buf[:cut] if cut < 0 else buf + bytes(cut)
    return bytes(buf)


class TestCheckpointProperty:
    @settings(max_examples=60, deadline=None)
    @given(cfg=_NET_CONFIGS, seed=st.integers(0, 2 ** 32 - 1))
    def test_roundtrip(self, cfg, seed):
        params = init_params(cfg, np.random.default_rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.ckpt"
            save_params(params, path)
            loaded = load_params(path)
            resaved = Path(tmp) / "again.ckpt"
            save_params(loaded, resaved)
            assert resaved.read_bytes() == path.read_bytes()
        assert loaded.config == cfg
        assert loaded.flat.dtype == np.float64
        assert np.array_equal(loaded.flat, params.flat)
        assert_slots_view_flat(loaded)

    @settings(max_examples=150, deadline=None)
    @given(buf=_edited_checkpoints())
    @example(buf=_header())
    @example(buf=V1_FILE)
    @example(buf=_header(hidden=0))
    @example(buf=_header(n_hidden=2 ** 32 - 1))
    @example(buf=_header(extra=-8))
    @example(buf=_header(extra=4))
    def test_edited_header_loads_or_names_file(self, buf):
        # a header and data length are a network's exactly when the network
        # saves back to the same bytes; any other is a ValueError naming the
        # file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.ckpt"
            path.write_bytes(buf)
            try:
                loaded = load_params(path)
            except ValueError as err:
                assert str(err).startswith(f"{path}: ")
                return
            save_params(loaded, path)
            assert path.read_bytes() == buf


def reference_forward_cached(params, x, tau, cond):
    """The forward pass as it was before the cache held the SiLU derivative:
    returns the output and (tau, rows, feats, zs, sigs, acts)."""
    cfg = params.config
    n = x.shape[0]
    tau = np.broadcast_to(np.asarray(tau, dtype=np.float64), (n,))
    cond = np.broadcast_to(np.asarray(cond), (n,))
    rows = np.where(cond == NULL_LABEL, cfg.n_labels, cond)
    ang = 2.0 * np.pi * tau[:, None] * params.time_freqs[None, :]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    temb = feats @ params.time_w
    temb += params.time_b
    a = np.concatenate([x, temb, params.cond_embed[rows]], axis=1)
    zs, sigs, acts = [], [], [a]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w
        z += b
        s = _sigmoid(z)
        a = z * s
        zs.append(z)
        sigs.append(s)
        acts.append(a)
    y = a @ params.weights[-1]
    y += params.biases[-1]
    return y, (tau, rows, feats, zs, sigs, acts)


def reference_backward(params, ref_cache, g):
    """The backward pass as it was before: it builds the SiLU derivative
    s * (1 + z * (1 - s)) from the cached z and s. Returns (grads, dx)."""
    cfg = params.config
    tau, rows, feats, zs, sigs, acts = ref_cache
    grads = zeros_like_params(params)
    np.matmul(acts[-1].T, g, out=grads.weights[-1])
    g.sum(axis=0, out=grads.biases[-1])
    da = g @ params.weights[-1].T
    for layer in range(cfg.n_hidden - 1, -1, -1):
        s = sigs[layer]
        dz = np.subtract(1.0, s)
        dz *= zs[layer]
        dz += 1.0
        dz *= s
        dz *= da
        np.matmul(acts[layer].T, dz, out=grads.weights[layer])
        dz.sum(axis=0, out=grads.biases[layer])
        da = dz @ params.weights[layer].T
    dx = da[:, :cfg.dim]
    dtemb = da[:, cfg.dim:cfg.dim + cfg.temb_dim]
    dcemb = da[:, cfg.dim + cfg.temb_dim:]
    np.matmul(feats.T, dtemb, out=grads.time_w)
    dtemb.sum(axis=0, out=grads.time_b)
    dfeats = dtemb @ params.time_w.T
    nf = cfg.n_freq
    dsin, dcos = dfeats[:, :nf], dfeats[:, nf:]
    sin, cos = feats[:, :nf], feats[:, nf:]
    scale = 2.0 * np.pi * tau[:, None]
    (scale * (dsin * cos - dcos * sin)).sum(axis=0, out=grads.time_freqs)
    np.add.at(grads.cond_embed, rows, dcemb)
    return grads, dx


@st.composite
def _net_cases(draw):
    dim = draw(st.integers(1, 4))
    cfg = NetConfig(dim=dim, n_labels=draw(st.integers(1, 5)),
                    hidden=draw(st.integers(1, 24)),
                    n_hidden=draw(st.integers(1, 4)),
                    out_dim=draw(st.sampled_from([1, dim])),
                    cond_dim=draw(st.integers(1, 5)),
                    temb_dim=draw(st.integers(1, 5)),
                    n_freq=draw(st.integers(1, 4)))
    n = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    per_sample_tau = draw(st.booleans())
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    x = 3.0 * rng.standard_normal((n, dim))
    tau = rng.uniform(0.0, 1.0, size=n) if per_sample_tau else rng.uniform()
    cond = rng.integers(NULL_LABEL, cfg.n_labels, size=n)  # NULL_LABEL rows
    u = rng.standard_normal((n, cfg.out_dim))
    return params, x, tau, cond, u


class TestCachedDerivative:
    """The cache keeps the SiLU derivative instead of z and sigmoid(z); every
    gradient must stay bit-identical to the backward that rebuilt it."""

    @settings(max_examples=80, deadline=None)
    @given(case=_net_cases())
    def test_matches_reference_bit_exact(self, case):
        params, x, tau, cond, u = case
        want_y, ref_cache = reference_forward_cached(params, x, tau, cond)
        want, want_dx = reference_backward(params, ref_cache, u)
        y, cache = net_forward_cached(params, x, tau, cond)
        assert np.array_equal(y, want_y)
        assert np.array_equal(net_forward(params, x, tau, cond), y)
        assert len(cache.dsilu) == params.config.n_hidden
        grads = net_backward(params, cache, u)
        for (name, got), (_, ref) in zip(grads.slots(), want.slots()):
            assert np.array_equal(got, ref), name
        assert np.array_equal(net_backward(params, cache, u, input_grad=True),
                              want_dx)

    def test_one_cache_serves_two_backwards(self):
        rng = np.random.default_rng(41)
        params = init_params(small_config(n_hidden=3), rng)
        x = rng.standard_normal((9, 2))
        _, cache = net_forward_cached(params, x, 0.4, NULL_LABEL)
        u, w = rng.standard_normal((2, 9, 2))
        first = net_backward(params, cache, u)
        first_dx = net_backward(params, cache, u, input_grad=True)
        net_backward(params, cache, w)
        net_backward(params, cache, w, input_grad=True)
        again = net_backward(params, cache, u)
        again_dx = net_backward(params, cache, u, input_grad=True)
        assert np.array_equal(first.flat, again.flat)
        assert np.array_equal(first_dx, again_dx)


class TestPassMemory:
    """Traced allocations of one pass at batch 256, hidden 128 (4 hidden
    layers of 256 x 128 float64 arrays, 262 KB each)."""

    @staticmethod
    def _traced(fn):
        tracemalloc.start()
        try:
            result = fn()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept, peak

    def setup_method(self):
        rng = np.random.default_rng(43)
        self.params = init_params(NetConfig(dim=2, n_labels=4, hidden=128),
                                  rng)
        self.x = rng.standard_normal((256, 2))
        self.cond = np.arange(256) % 4
        net_forward_cached(self.params, self.x, 0.3, self.cond)  # warm up

    def test_uncached_forward_holds_no_layer(self):
        y, kept, peak = self._traced(
            lambda: net_forward(self.params, self.x, 0.3, self.cond))
        assert kept - y.nbytes < 64 * 1024
        assert peak < 1.5e6

    def test_cache_keeps_only_what_backward_reads(self):
        (y, cache), kept, _ = self._traced(
            lambda: net_forward_cached(self.params, self.x, 0.3, self.cond))
        assert len(cache.acts) == 5 and len(cache.dsilu) == 4
        assert kept < 2.3e6
