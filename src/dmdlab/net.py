"""Small conditional MLP with hand-written forward and reverse passes.

One network family serves every role in the lab (teacher, student generator,
fake model, discriminator): an MLP over [x, noise-level embedding, condition
embedding] that predicts a clean sample (x0 parameterization). Score and
velocity views are derived elsewhere from this prediction.

The noise level lives in [0, 1] with 0 = pure noise and 1 = clean data.

Each network keeps all its parameters in one contiguous buffer, so Adam, EMA
and copies are single vector operations. The passes write into buffers of
their own with in-place operations, and importing this module tells glibc to
keep freed heap memory in the process (see _keep_freed_heap).
"""

import ctypes
import math
import reprlib
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

NULL_LABEL = -1  # reserved unconditional id; uses the last embedding row

# glibc mallopt parameters (malloc.h) and the value given to both
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_HEAP_BYTES = 32 * 1024 * 1024  # glibc's largest mmap threshold on 64-bit


def _keep_freed_heap() -> None:
    """Serve the passes' temporaries from a heap that is never handed back.

    Every pass allocates and frees many ~128 KB arrays. By default glibc maps
    each one with mmap and unmaps it on free (or trims it off the top of the
    heap), so the next pass faults the same pages in from the kernel again:
    about 3,900 minor faults per FULL_DMD update at batch 128. With both
    thresholds at 32 MB freed blocks stay in the heap for reuse. A C library
    without mallopt is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _KEEP_HEAP_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _KEEP_HEAP_BYTES)


_keep_freed_heap()


class NonFiniteError(ValueError):
    """Raised when a training quantity stops being finite; carries context
    and, for a network's pass or Adam step, that network's params."""

    def __init__(self, message, context=None, params=None):
        super().__init__(message)
        self.context = context or {}
        self.params = params


def _is_int(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_number(name, value, lo, hi=math.inf, integer=False, ends="[)"):
    """value if it is a finite real (an integer when integer is set), not a
    bool, in the interval from lo to hi that ends brackets; else a ValueError
    that starts with name. An integer past the float range fails here."""
    ok = (isinstance(value, Integral if integer else Real)
          and not isinstance(value, bool))
    x = value if ok and abs(value) <= sys.float_info.max else math.nan
    if not ((lo < x or ends[0] == "[" and lo == x)
            and (x < hi or ends[1] == "]" and x == hi)):
        got = ("an integer past the float range"
               if _is_int(value) and x != x else reprlib.repr(value))
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind} in {ends[0]}{lo}, "
                         f"{hi}{ends[1]}, got {got}")
    return value


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

    def __post_init__(self):
        """Every size is a positive integer, n_hidden a non-negative one."""
        if self.out_dim is None:
            self.out_dim = self.dim
        for name, value in vars(self).items():
            check_number(name, value, 0 if name == "n_hidden" else 1,
                         integer=True)

    @property
    def input_dim(self) -> int:
        return self.dim + self.temb_dim + self.cond_dim


def slot_shapes(config: NetConfig) -> list:
    """Shapes of the parameter slots in declaration order: weights, biases,
    cond_embed (n_labels + 1, cond_dim; last row = null), time_freqs,
    time_w, time_b."""
    dims = [config.input_dim] + [config.hidden] * config.n_hidden + [config.out_dim]
    return ([(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
            + [(d,) for d in dims[1:]]
            + [(config.n_labels + 1, config.cond_dim), (config.n_freq,),
               (2 * config.n_freq, config.temb_dim), (config.temb_dim,)])


@dataclass
class NetParams:
    """All learnable arrays of one network: its config and one flat buffer.

    flat holds every parameter contiguously in declaration order (weights,
    biases, cond_embed, time_freqs, time_w, time_b), the order of the
    checkpoint container. Construction makes each slot a view into flat, so
    write slots in place; never rebind them.
    """

    config: NetConfig
    flat: np.ndarray

    def __post_init__(self):
        shapes = slot_shapes(self.config)
        n = sum(map(math.prod, shapes))
        if self.flat.shape != (n,):
            raise ValueError(f"flat buffer has shape {self.flat.shape}, "
                             f"the config needs ({n},)")
        views, off = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(self.flat[off:off + size].reshape(shape))
            off += size
        layers = self.config.n_hidden + 1
        self.weights = views[:layers]
        self.biases = views[layers:2 * layers]
        self.cond_embed, self.time_freqs, self.time_w, self.time_b = views[2 * layers:]

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

    def copy(self) -> "NetParams":
        return NetParams(self.config, self.flat.copy())

    def __call__(self, x, noise_level, cond) -> np.ndarray:
        """A network is a predictor: net_forward(self, x, noise_level, cond)."""
        return net_forward(self, x, noise_level, cond)


def zeros_like_params(params: NetParams) -> NetParams:
    return NetParams(params.config, np.zeros_like(params.flat))


def init_params(config: NetConfig, rng: np.random.Generator) -> NetParams:
    """Glorot-uniform weights, zero biases, N(0, 0.02^2) condition embeddings,
    n_freq sinusoidal frequencies geometrically spaced from 1 to 100."""

    def glorot(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_in, fan_out))

    params = NetParams(config, np.zeros(sum(math.prod(s) for s in slot_shapes(config))))
    for w in params.weights:
        w[:] = glorot(*w.shape)
    params.cond_embed[:] = 0.02 * rng.standard_normal(params.cond_embed.shape)
    params.time_freqs[:] = np.geomspace(1.0, 100.0, config.n_freq)
    params.time_w[:] = glorot(*params.time_w.shape)
    return params


def _sigmoid(z):
    """Logistic function as 0.5 * (1 + tanh(z / 2)): no overflow at any
    magnitude, computed in one fresh buffer."""
    s = np.empty(np.shape(z), np.result_type(z, 0.5))
    np.multiply(z, 0.5, out=s)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _per_sample(v, n, name, dtype):
    """v as one value per sample: a scalar is broadcast to shape (n,)."""
    v = np.asarray(v, dtype=dtype)
    if v.ndim == 0:
        v = np.full(n, v)
    if v.shape != (n,):
        raise ValueError(f"{name} must be scalar or shape ({n},), got {v.shape}")
    return v


@dataclass
class ForwardCache:
    """What net_backward reads, and nothing else."""

    tau: np.ndarray
    rows: np.ndarray
    feats: np.ndarray  # [sin(ang), cos(ang)] of the noise-level embedding
    dsilu: list        # SiLU'(z) of each hidden layer, z its pre-activation
    acts: list         # activations entering each layer, acts[0] is the input


def _forward(params: NetParams, x, noise_level, cond, want_cache):
    cfg = params.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.dim:
        raise ValueError(f"x must have shape (batch, {cfg.dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite input x", params=params)
    n = x.shape[0]
    tau = _per_sample(noise_level, n, "noise_level", np.float64)
    if not ((tau >= 0.0) & (tau <= 1.0)).all():  # NaN fails both
        raise ValueError("noise_level must lie in [0, 1]")
    labels = np.asarray(cond)
    if labels.dtype.kind == "f" and not (np.trunc(labels) == labels).all():
        raise ValueError("cond labels must be integers")
    # NULL_LABEL is -1, so indexing with it reaches the null (last) row
    rows = _per_sample(labels, n, "cond", np.int64)
    if np.any((rows < NULL_LABEL) | (rows >= cfg.n_labels)):
        raise ValueError("cond labels must be in [0, n_labels) or NULL_LABEL")

    ang = 2.0 * np.pi * tau[:, None] * params.time_freqs[None, :]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    temb = feats @ params.time_w
    temb += params.time_b
    a = np.concatenate([x, temb, params.cond_embed[rows]], axis=1)

    cache = ForwardCache(tau, rows, feats, [], [a]) if want_cache else None
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w
        z += b
        s = _sigmoid(z)
        if cache is not None:
            # s * (1 + z * (1 - s)), built while z and s are at hand
            d = np.subtract(1.0, s)
            d *= z
            d += 1.0
            d *= s
            cache.dsilu.append(d)
        z *= s  # SiLU
        a = z
        if cache is not None:
            cache.acts.append(a)
    y = a @ params.weights[-1]
    y += params.biases[-1]
    if not np.isfinite(y).all():
        raise NonFiniteError("non-finite network output", params=params)
    return y if cache is None else (y, cache)


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
                 input_grad: bool = False):
    """Gradients of L = sum(output * upstream) w.r.t. every parameter slot,
    or, with input_grad=True, only dL/dx.

    Requires the cache from net_forward_cached on the same inputs; the cache
    is only read, so it may serve several backward passes.
    """
    cfg = params.config
    if cache is None:
        raise ValueError("missing forward cache")
    g = np.asarray(upstream)
    out_dim = cfg.out_dim
    if g.shape != (cache.tau.shape[0], out_dim):
        raise ValueError(f"upstream must have shape ({cache.tau.shape[0]}, {out_dim}), got {g.shape}")
    if not np.isfinite(g).all():
        raise NonFiniteError("non-finite upstream gradient", params=params)

    if not input_grad:
        # every slot but cond_embed is written whole below
        grads = NetParams(cfg, np.empty_like(params.flat))
        grads.cond_embed[:] = 0.0
        np.matmul(cache.acts[-1].T, g, out=grads.weights[-1])
        g.sum(axis=0, out=grads.biases[-1])
    da = g @ params.weights[-1].T

    for layer in range(cfg.n_hidden - 1, -1, -1):
        da *= cache.dsilu[layer]  # now dL/dz
        if not input_grad:
            np.matmul(cache.acts[layer].T, da, out=grads.weights[layer])
            da.sum(axis=0, out=grads.biases[layer])
        da = da @ params.weights[layer].T

    if input_grad:
        return da[:, :cfg.dim]
    dtemb = da[:, cfg.dim:cfg.dim + cfg.temb_dim]
    dcemb = da[:, cfg.dim + cfg.temb_dim:]
    np.matmul(cache.feats.T, dtemb, out=grads.time_w)
    dtemb.sum(axis=0, out=grads.time_b)
    dfeats = dtemb @ params.time_w.T
    nf = cfg.n_freq
    dsin, dcos = dfeats[:, :nf], dfeats[:, nf:]
    sin, cos = cache.feats[:, :nf], cache.feats[:, nf:]
    scale = 2.0 * np.pi * cache.tau[:, None]
    (scale * (dsin * cos - dcos * sin)).sum(axis=0, out=grads.time_freqs)
    np.add.at(grads.cond_embed, cache.rows, dcemb)
    return grads
