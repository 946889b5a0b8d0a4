"""Flow-matching mechanics: renoising, guidance, teacher training, sampling.

Noise-level convention: t=0 is pure noise, t=1 is clean data, and the noising
path is the straight line x_tau = (1 - tau) * eps + tau * x. Every model in
the lab predicts the clean sample; the sampler converts that prediction into
a velocity.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .data import LabeledBatch, MixtureSpec, sample_dataset
from .net import (NULL_LABEL, NetConfig, NetParams, NonFiniteError,
                  check_number, init_params, net_backward, net_forward_cached)
from .optim import init_adam, adam_step, ema_update

LOG_EVERY = 100  # train_teacher's loss log: iteration 1 and every 100th


@dataclass
class TeacherConfig:
    iterations: int = 20_000
    batch: int = 256
    lr: float = 1e-3
    lr_final: float = 1e-5  # cosine decay target; equal to lr keeps lr fixed
    p_uncond: float = 0.1
    ema_decay: float | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Each message starts with the teacher-config key at fault."""
        check_number("iterations", self.iterations, 1, integer=True)
        check_number("batch", self.batch, 1, integer=True)
        check_number("p_uncond", self.p_uncond, 0, 1, ends="()")
        check_number("lr", self.lr, 0, ends="()")
        check_number("lr_final", self.lr_final, 0, self.lr, ends="(]")
        if self.ema_decay is not None:
            check_number("ema_decay", self.ema_decay, 0, 1, ends="[]")


def renoise(x: np.ndarray, tau, eps: np.ndarray) -> np.ndarray:
    """x_tau = (1 - tau) * eps + tau * x. tau may be scalar or per-sample."""
    x = np.asarray(x)
    eps = np.asarray(eps)
    if x.shape != eps.shape:
        raise ValueError(f"x/eps shape mismatch: {x.shape} vs {eps.shape}")
    tau = np.asarray(tau, dtype=x.dtype)
    if tau.ndim == 1:
        if tau.shape[0] != x.shape[0]:
            raise ValueError("per-sample tau length must match batch")
        tau = tau[:, None]
    return (1.0 - tau) * eps + tau * x


def cfg_combine(s_cond: np.ndarray, s_uncond: np.ndarray, alpha: float) -> np.ndarray:
    """Guided prediction s_uncond + alpha * (s_cond - s_uncond)."""
    check_number("alpha", alpha, 0)
    s_cond = np.asarray(s_cond)
    s_uncond = np.asarray(s_uncond)
    if s_cond.shape != s_uncond.shape:
        raise ValueError("conditional/unconditional shape mismatch")
    if alpha == 1.0:  # guidance off must return the conditional bit-exactly
        return s_cond.copy()
    return s_uncond + alpha * (s_cond - s_uncond)


def regression_loss_and_grads(model: NetParams, x_tau, tau, cond, target):
    """Denoising regression of model(x_tau, tau, cond) onto target: the mean
    over the batch of the squared error, and its parameter gradients."""
    pred, cache = net_forward_cached(model, x_tau, tau, cond)
    resid = pred - target
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    return loss, net_backward(model, cache, (2.0 / target.shape[0]) * resid)


def teacher_loss(model, batch: LabeledBatch, rng: np.random.Generator,
                 p_uncond: float = 0.1):
    """Denoising regression on renoised data with condition dropout.

    loss = mean over the batch of ||model(x_tau, tau, cond-or-null) - x||^2,
    tau ~ U(0,1) per sample. Returns (loss, grads); grads is None when the
    model is an injected callable rather than NetParams.
    """
    x = batch.points
    n = x.shape[0]
    tau = rng.uniform(0.0, 1.0, size=n)
    eps = rng.standard_normal(x.shape)
    drop = rng.uniform(size=n) < p_uncond
    cond = np.where(drop, NULL_LABEL, batch.labels)
    x_tau = renoise(x, tau, eps)
    if isinstance(model, NetParams):
        return regression_loss_and_grads(model, x_tau, tau, cond, x)
    pred = model(x_tau, tau, cond)
    resid = pred - x
    return float(np.mean(np.sum(resid ** 2, axis=1))), None


def train_teacher(spec: MixtureSpec, config: TeacherConfig,
                  rng: np.random.Generator, log_path=None) -> NetParams:
    """Train a conditional denoiser on the mixture; returns the parameters
    (EMA-smoothed when config.ema_decay is set). Optionally logs CSV rows
    (iteration, loss). A NonFiniteError leaves with its iteration."""
    net_cfg = NetConfig(dim=spec.dim, n_labels=spec.label_count)
    params = init_params(net_cfg, rng)
    opt = init_adam(params, lr=config.lr)
    ema = params.copy() if config.ema_decay is not None else None
    rows = []
    for it in range(1, config.iterations + 1):
        frac = (it - 1) / max(config.iterations - 1, 1)
        opt.lr = config.lr_final + 0.5 * (config.lr - config.lr_final) * (
            1.0 + np.cos(np.pi * frac))
        batch = sample_dataset(spec, config.batch, rng)
        try:
            loss, grads = teacher_loss(params, batch, rng, config.p_uncond)
            adam_step(opt, params, grads)
        except NonFiniteError as err:
            err.context.setdefault("iteration", it)
            raise
        if ema is not None:
            ema_update(ema, params, config.ema_decay)
        if it % LOG_EVERY == 0 or it == 1:
            rows.append((it, loss))
    if log_path is not None:
        with open(log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loss"])
            for it, loss in rows:
                writer.writerow([it, repr(loss)])
    return ema if ema is not None else params


def sample_teacher(model, n_steps: int, alpha: float, cond, n: int,
                   rng: np.random.Generator, dim: int | None = None) -> np.ndarray:
    """Euler sampling on the uniform grid t_k = k / n_steps from pure noise.

    Each step forms the guided clean prediction and integrates the velocity
    (xhat - z) / (1 - t); t stays below 1, and the final step, where dt
    equals 1 - t, lands on the prediction up to rounding. cond may be a
    scalar label or a per-sample array.
    """
    check_number("n_steps", n_steps, 1, integer=True)
    check_number("alpha", alpha, 0)
    if isinstance(model, NetParams):
        dim = model.config.dim
    elif dim is None:
        raise ValueError("dim is required for injected predictors")
    cond = np.asarray(cond)
    if cond.ndim == 0:
        cond = np.full(n, int(cond))
    z = rng.standard_normal((n, dim))
    dt = 1.0 / n_steps
    for k in range(n_steps):
        t = k * dt
        s_cond = model(z, t, cond)
        if alpha == 1.0:
            xhat = s_cond
        else:
            s_uncond = model(z, t, np.full(n, NULL_LABEL))
            xhat = cfg_combine(s_cond, s_uncond, alpha)
        z = z + dt * (xhat - z) / (1.0 - t)
    return z
