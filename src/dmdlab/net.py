"""Small conditional MLP with hand-written forward and reverse passes.

One network family serves every role in the lab (teacher, student generator,
fake model, discriminator): an MLP over [x, noise-level embedding, condition
embedding] that predicts a clean sample (x0 parameterization). Score and
velocity views are derived elsewhere from this prediction.

The noise level lives in [0, 1] with 0 = pure noise and 1 = clean data.
"""

from dataclasses import dataclass, field

import numpy as np

NULL_LABEL = -1  # reserved unconditional id; uses the last embedding row


@dataclass
class NetConfig:
    dim: int
    n_labels: int
    hidden: int = 128
    n_hidden: int = 4
    out_dim: int | None = None
    cond_dim: int = 16
    temb_dim: int = 16
    n_freq: int = 8
    freq_lo: float = 1.0
    freq_hi: float = 100.0

    @property
    def output_dim(self) -> int:
        return self.dim if self.out_dim is None else self.out_dim

    @property
    def input_dim(self) -> int:
        return self.dim + self.temb_dim + self.cond_dim


@dataclass
class NetParams:
    """All learnable arrays of one network, in fixed declaration order.

    The slot order (weights, biases, cond_embed, time_freqs, time_w, time_b)
    is the canonical traversal used by the optimizer, EMA and the checkpoint
    container.
    """

    config: NetConfig
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    cond_embed: np.ndarray = None  # (n_labels + 1, cond_dim); last row = null
    time_freqs: np.ndarray = None  # (n_freq,)
    time_w: np.ndarray = None      # (2 * n_freq, temb_dim)
    time_b: np.ndarray = None      # (temb_dim,)

    def slots(self):
        """Yield (name, array) pairs in declaration order."""
        for i, w in enumerate(self.weights):
            yield f"w{i}", w
        for i, b in enumerate(self.biases):
            yield f"b{i}", b
        yield "cond_embed", self.cond_embed
        yield "time_freqs", self.time_freqs
        yield "time_w", self.time_w
        yield "time_b", self.time_b

    def arrays(self):
        return [a for _, a in self.slots()]

    def copy(self) -> "NetParams":
        return NetParams(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            cond_embed=self.cond_embed.copy(),
            time_freqs=self.time_freqs.copy(),
            time_w=self.time_w.copy(),
            time_b=self.time_b.copy(),
        )

    def n_params(self) -> int:
        return sum(a.size for a in self.arrays())


# Gradients share the parameter container: one slot per parameter slot.
Gradients = NetParams


def zeros_like_params(params: NetParams) -> NetParams:
    return NetParams(
        config=params.config,
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
        cond_embed=np.zeros_like(params.cond_embed),
        time_freqs=np.zeros_like(params.time_freqs),
        time_w=np.zeros_like(params.time_w),
        time_b=np.zeros_like(params.time_b),
    )


def init_params(config: NetConfig, rng: np.random.Generator) -> NetParams:
    """Glorot-uniform weights, zero biases, N(0, 0.02^2) condition embeddings,
    geometrically spaced sinusoidal frequencies."""

    def glorot(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_in, fan_out))

    dims = [config.input_dim] + [config.hidden] * config.n_hidden + [config.output_dim]
    weights = [glorot(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    cond_embed = 0.02 * rng.standard_normal((config.n_labels + 1, config.cond_dim))
    time_freqs = np.geomspace(config.freq_lo, config.freq_hi, config.n_freq)
    time_w = glorot(2 * config.n_freq, config.temb_dim)
    time_b = np.zeros(config.temb_dim)
    return NetParams(config, weights, biases, cond_embed, time_freqs, time_w, time_b)


def _sigmoid(z):
    # overflow-free for any magnitude
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _silu(z):
    return z * _sigmoid(z)


def _dsilu(z):
    s = _sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def _as_batch_scalar(v, n, name):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        v = np.full(n, float(v))
    if v.shape != (n,):
        raise ValueError(f"{name} must be scalar or shape ({n},), got {v.shape}")
    return v


def _cond_rows(config: NetConfig, cond, n):
    cond = np.asarray(cond)
    if cond.ndim == 0:
        cond = np.full(n, int(cond))
    if cond.shape != (n,):
        raise ValueError(f"cond must be scalar or shape ({n},), got {cond.shape}")
    cond = cond.astype(np.int64)
    if np.any((cond < NULL_LABEL) | (cond >= config.n_labels)):
        raise ValueError("cond labels must be in [0, n_labels) or NULL_LABEL")
    return np.where(cond == NULL_LABEL, config.n_labels, cond)


@dataclass
class ForwardCache:
    x: np.ndarray
    tau: np.ndarray
    rows: np.ndarray
    ang: np.ndarray
    feats: np.ndarray
    h0: np.ndarray
    zs: list
    acts: list  # activations entering each layer, acts[0] == h0


def _forward(params: NetParams, x, noise_level, cond, want_cache):
    cfg = params.config
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != cfg.dim:
        raise ValueError(f"x must have shape (batch, {cfg.dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input x")
    n = x.shape[0]
    tau = _as_batch_scalar(noise_level, n, "noise_level")
    if np.any((tau < 0.0) | (tau > 1.0)):
        raise ValueError("noise_level must lie in [0, 1]")
    rows = _cond_rows(cfg, cond, n)

    tau = tau.astype(x.dtype, copy=False)
    ang = 2.0 * np.pi * tau[:, None] * params.time_freqs[None, :]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    temb = feats @ params.time_w + params.time_b
    cemb = params.cond_embed[rows]
    h = np.concatenate([x, temb, cemb], axis=1)

    zs, acts = [], [h]
    a = h
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w + b
        zs.append(z)
        a = _silu(z)
        acts.append(a)
    y = a @ params.weights[-1] + params.biases[-1]
    if not np.isfinite(y).all():
        raise ValueError("non-finite network output")
    if want_cache:
        return y, ForwardCache(x, tau, rows, ang, feats, h, zs, acts)
    return y


def net_forward(params: NetParams, x, noise_level, cond) -> np.ndarray:
    """Predict clean samples for a batch at the given noise level and labels.

    cond is a label id per sample (or a scalar, broadcast); NULL_LABEL selects
    the reserved unconditional embedding row. Deterministic in its inputs.
    """
    return _forward(params, x, noise_level, cond, want_cache=False)


def net_forward_cached(params: NetParams, x, noise_level, cond):
    """Forward pass that also returns the activation cache for net_backward."""
    return _forward(params, x, noise_level, cond, want_cache=True)


def net_backward(params: NetParams, cache: ForwardCache, upstream,
                 return_input_grad: bool = False):
    """Gradients of L = sum(output * upstream) w.r.t. every parameter slot.

    Requires the cache from net_forward_cached on the same inputs. With
    return_input_grad=True also returns dL/dx.
    """
    cfg = params.config
    if cache is None:
        raise ValueError("missing forward cache")
    g = np.asarray(upstream)
    out_dim = cfg.output_dim
    if g.shape != (cache.x.shape[0], out_dim):
        raise ValueError(f"upstream must have shape ({cache.x.shape[0]}, {out_dim}), got {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("non-finite upstream gradient")

    grads = zeros_like_params(params)
    a_last = cache.acts[-1]
    grads.weights[-1][:] = a_last.T @ g
    grads.biases[-1][:] = g.sum(axis=0)
    da = g @ params.weights[-1].T

    for layer in range(cfg.n_hidden - 1, -1, -1):
        dz = da * _dsilu(cache.zs[layer])
        grads.weights[layer][:] = cache.acts[layer].T @ dz
        grads.biases[layer][:] = dz.sum(axis=0)
        da = dz @ params.weights[layer].T

    dx = da[:, :cfg.dim]
    dtemb = da[:, cfg.dim:cfg.dim + cfg.temb_dim]
    dcemb = da[:, cfg.dim + cfg.temb_dim:]

    grads.time_w[:] = cache.feats.T @ dtemb
    grads.time_b[:] = dtemb.sum(axis=0)
    dfeats = dtemb @ params.time_w.T
    nf = cfg.n_freq
    dsin, dcos = dfeats[:, :nf], dfeats[:, nf:]
    scale = 2.0 * np.pi * cache.tau[:, None]
    grads.time_freqs[:] = (scale * (dsin * np.cos(cache.ang) - dcos * np.sin(cache.ang))).sum(axis=0)
    np.add.at(grads.cond_embed, cache.rows, dcemb)

    if return_input_grad:
        return grads, dx
    return grads
