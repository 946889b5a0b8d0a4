"""Few-step distillation with a decomposed update direction.

The student update direction splits into two parts computed from gradient-
stopped score-model evaluations on renoised generator outputs:

  * distribution matching (DM): real conditional minus fake conditional
    prediction -- the theoretically grounded term, acting as a regularizer;
  * CFG augmentation (CA): (alpha - 1) times (conditional minus unconditional
    real prediction) -- the engine that bakes the guidance pattern into the
    student.

Both terms may share one renoising draw (coupled) or use independent noise
levels per schedule policy (decoupled). The generator descends a proxy loss
whose gradient at the output is exactly -2 * lambda * delta_total, and an
auxiliary fake model tracks the generator online (several updates per
generator step). All loops are single-threaded and deterministic given the
seeds; the generator phase and the fake/TTUR phase consume separate RNG
streams so that a purely observing fake model cannot perturb training.
"""

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import MixtureSpec, expected_sample_stats, sample_points_for_labels
from .flow import _check_alpha, regression_loss_and_grads, renoise
from .metrics import batch_sample_stats
from .net import (NULL_LABEL, NetConfig, NetParams, NonFiniteError, _is_int,
                  _is_real, _sigmoid, init_params, net_backward, net_forward,
                  net_forward_cached)
from .optim import AdamState, adam_step, init_adam


class Mode(str, Enum):
    FULL_DMD = "FULL_DMD"
    CA_ONLY = "CA_ONLY"
    DM_ONLY = "DM_ONLY"
    THEORY_DMD = "THEORY_DMD"

    @property
    def uses_dm(self) -> bool:
        return self in (Mode.FULL_DMD, Mode.DM_ONLY, Mode.THEORY_DMD)

    @property
    def uses_ca(self) -> bool:
        return self in (Mode.FULL_DMD, Mode.CA_ONLY)


class SchedulePolicy(str, Enum):
    COUPLED_SHARED = "COUPLED_SHARED"
    DECOUPLED_FULL = "DECOUPLED_FULL"
    DECOUPLED_CONSTRAINED = "DECOUPLED_CONSTRAINED"
    DECOUPLED_HYBRID = "DECOUPLED_HYBRID"


class Regularizer(str, Enum):
    NONE = "NONE"
    MEANVAR_KL = "MEANVAR_KL"
    GAN = "GAN"


_DEFAULT_GRIDS = {1: (0.0,), 2: (0.0, 0.5), 4: (0.0, 0.25, 0.5, 0.75)}


@dataclass
class DistillConfig:
    alpha: float = 4.0
    lam: float = 1.0
    n_steps: int = 1
    step_grid: tuple | None = None
    ttur_ratio: int = 5
    mode: Mode = Mode.FULL_DMD
    regularizer: Regularizer = Regularizer.NONE
    normalizer_on: bool = True
    w_gan: float = 1e-2
    w_meanvar: float = 1.0
    batch: int = 256
    lr_gen: float = 1e-4
    lr_fake: float = 1e-4
    observer_mode: bool = False
    schedule_policy: SchedulePolicy = SchedulePolicy.COUPLED_SHARED
    tau_ca_range: tuple | None = None
    tau_dm_range: tuple | None = None

    def __post_init__(self):
        self.mode = Mode(self.mode)
        self.regularizer = Regularizer(self.regularizer)
        self.schedule_policy = SchedulePolicy(self.schedule_policy)
        self.validate()

    @property
    def trains_fake(self) -> bool:
        """Whether the TTUR phase trains a fake model: something reads it
        (the DM term or the observer probe) and ttur_ratio is positive."""
        return ((self.mode.uses_dm or self.observer_mode)
                and self.ttur_ratio > 0)

    @property
    def grid(self) -> tuple:
        if self.step_grid is not None:
            return tuple(self.step_grid)
        return _DEFAULT_GRIDS[self.n_steps]

    def validate(self) -> None:
        """Each message starts with the run-config key at fault."""
        _check_alpha(self.alpha)
        if not (_is_real(self.lam) and 0 < self.lam < math.inf):
            raise ValueError("lambda must be finite and > 0")
        if self.step_grid is None and self.n_steps not in _DEFAULT_GRIDS:
            raise ValueError("n_steps must be one of {1, 2, 4} (or give step_grid)")
        grid = self.grid
        if not grid or grid[0] != 0.0:
            raise ValueError("step_grid must start at 0")
        if (any(not a < b for a, b in zip(grid, grid[1:]))
                or not grid[-1] < 1.0):
            raise ValueError("step_grid must be strictly increasing within [0, 1)")
        if not _is_int(self.n_steps) or len(grid) != self.n_steps:
            raise ValueError(f"n_steps must be the integer {len(grid)}, the "
                             f"step_grid's length, got {self.n_steps!r}")
        if not _is_int(self.ttur_ratio) or self.ttur_ratio < 0:
            raise ValueError("ttur_ratio must be an integer >= 0")
        if not _is_int(self.batch) or self.batch <= 0:
            raise ValueError("batch must be a positive integer")
        if not (_is_real(self.w_gan) and 0 <= self.w_gan < math.inf):
            raise ValueError("w_gan must be finite and >= 0")
        if not (_is_real(self.w_meanvar) and 0 <= self.w_meanvar < math.inf):
            raise ValueError("w_meanvar must be finite and >= 0")
        if not (_is_real(self.lr_gen) and 0 < self.lr_gen < math.inf):
            raise ValueError("lr_gen must be finite and positive")
        if not (_is_real(self.lr_fake) and 0 < self.lr_fake < math.inf):
            raise ValueError("lr_fake must be finite and positive")
        for name in ("tau_ca_range", "tau_dm_range"):
            r = getattr(self, name)
            if r is not None and not (
                    len(r) == 2 and 0.0 <= float(r[0]) < float(r[1]) <= 1.0):
                raise ValueError(f"{name} must be [lo, hi] with 0 <= lo < hi <= 1")
        for name in ("normalizer_on", "observer_mode"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be true or false")
        ca, dm = self.tau_ca_range, self.tau_dm_range
        if self.schedule_policy == SchedulePolicy.COUPLED_SHARED:
            if ca and dm and tuple(ca) != tuple(dm):
                raise ValueError("tau_dm_range must equal tau_ca_range under "
                                 "COUPLED_SHARED, which makes one shared draw")
            self.tau_ca_range = self.tau_dm_range = ca or dm

    def ranges(self, t: float):
        """The (tau_ca, tau_dm) ranges at step level t: the policy's row, (t, 1)
        being the span that remains, each override replacing its term's."""
        rest, full = (t, 1.0), (0.0, 1.0)
        policy = self.schedule_policy
        ca, dm = {SchedulePolicy.COUPLED_SHARED: (full, full),
                  SchedulePolicy.DECOUPLED_FULL: (full, full),
                  SchedulePolicy.DECOUPLED_CONSTRAINED: (rest, rest),
                  SchedulePolicy.DECOUPLED_HYBRID: (rest, full)}[policy]
        return self.tau_ca_range or ca, self.tau_dm_range or dm


@dataclass
class UpdateDirection:
    delta_dm: np.ndarray
    delta_ca: np.ndarray
    delta_total: np.ndarray


@dataclass
class DistillState:
    generator: NetParams
    gen_opt: AdamState
    fake: NetParams
    fake_opt: AdamState | None
    disc: NetParams | None
    disc_opt: AdamState | None
    iteration: int
    rng_gen: np.random.Generator
    rng_fake: np.random.Generator
    spec: MixtureSpec | None = None
    reg_targets: list = field(default_factory=list)  # (mu, var) per label


def init_distill_state(teacher: NetParams, config: DistillConfig,
                       spec: MixtureSpec | None, seed: int) -> DistillState:
    """The generator starts as a copy of the teacher, and so does the fake
    model when config.trains_fake; otherwise the fake is the teacher itself,
    never written, with no optimizer."""
    ss = np.random.SeedSequence(seed)
    s_gen, s_fake, s_disc = ss.spawn(3)
    disc = disc_opt = None
    if config.regularizer == Regularizer.GAN:
        if spec is None:
            raise ValueError("GAN regularizer needs a data spec for real batches")
        disc_cfg = NetConfig(dim=teacher.config.dim,
                             n_labels=teacher.config.n_labels,
                             n_hidden=3, out_dim=1)
        disc = init_params(disc_cfg, np.random.default_rng(s_disc))
        disc_opt = init_adam(disc, lr=config.lr_fake)
    reg_targets = []
    if config.regularizer == Regularizer.MEANVAR_KL:  # their only reader
        if spec is None:
            raise ValueError("MEANVAR_KL regularizer needs a data spec for "
                             "its moment targets")
        reg_targets = [expected_sample_stats(spec, lb)
                       for lb in range(spec.label_count)]
    generator = teacher.copy()
    fake, fake_opt = teacher, None
    if config.trains_fake:
        fake = teacher.copy()
        fake_opt = init_adam(fake, lr=config.lr_fake)
    return DistillState(
        generator=generator,
        gen_opt=init_adam(generator, lr=config.lr_gen),
        fake=fake,
        fake_opt=fake_opt,
        disc=disc,
        disc_opt=disc_opt,
        iteration=0,
        rng_gen=np.random.default_rng(s_gen),
        rng_fake=np.random.default_rng(s_fake),
        spec=spec,
        reg_targets=reg_targets,
    )


def sample_tau(config: DistillConfig, t: float, rng: np.random.Generator,
               size=None):
    """Draw the (tau_ca, tau_dm, shared_eps) triple for one generator step,
    uniformly over config.ranges(t): tau_ca, then tau_dm unless
    COUPLED_SHARED, whose one draw serves both. size vectorizes the draws.
    """
    ca_range, dm_range = config.ranges(t)
    for lo, hi in (ca_range, dm_range):
        if hi <= lo:
            raise ValueError(f"empty noise-level range [{lo}, {hi}]")
    tau_ca = rng.uniform(*ca_range, size)
    if config.schedule_policy == SchedulePolicy.COUPLED_SHARED:
        return tau_ca, tau_ca, True
    return tau_ca, rng.uniform(*dm_range, size), False


def delta_dm(real, fake, x_tau: np.ndarray, tau, cond) -> np.ndarray:
    """Real-conditional minus fake-conditional prediction (gradient-stopped)."""
    if fake is real:  # the term is zero: evaluate nothing
        return np.zeros(np.shape(x_tau))
    return real(x_tau, tau, cond) - fake(x_tau, tau, cond)


def delta_ca(real, x_tau: np.ndarray, tau, cond, alpha: float) -> np.ndarray:
    """(alpha - 1) * (conditional - unconditional real prediction)."""
    _check_alpha(alpha)
    if alpha == 1.0:  # the term is zero: evaluate nothing
        return np.zeros(np.shape(x_tau))
    p_cond = real(x_tau, tau, cond)
    p_uncond = real(x_tau, tau, np.full(x_tau.shape[0], NULL_LABEL))
    return (alpha - 1.0) * (p_cond - p_uncond)


def dmd_direction_coupled(real, fake, gen_out: np.ndarray, t: float, cond,
                          config: DistillConfig, rng: np.random.Generator):
    """One shared (tau, eps) draw for both terms. Returns (direction, tau, tau)."""
    if config.schedule_policy != SchedulePolicy.COUPLED_SHARED:
        raise ValueError("coupled direction requires the COUPLED_SHARED policy")
    return dmd_direction_decoupled(real, fake, gen_out, t, cond, config, rng)


def dmd_direction_decoupled(real, fake, gen_out: np.ndarray, t: float, cond,
                            config: DistillConfig, rng: np.random.Generator):
    """(tau, eps) per term as the schedule policy dictates; a shared policy
    renoises once for both terms. The mode leaves DM out by making the teacher
    its own fake and CA out with alpha 1; the normalizer scales both terms."""
    tau_ca, tau_dm, shared = sample_tau(config, t, rng)
    x_ca = renoise(gen_out, tau_ca, rng.standard_normal(gen_out.shape))
    x_dm = x_ca if shared else renoise(gen_out, tau_dm,
                                       rng.standard_normal(gen_out.shape))
    d_dm = delta_dm(real, fake if config.mode.uses_dm else real,
                    x_dm, tau_dm, cond)
    d_ca = delta_ca(real, x_ca, tau_ca, cond,
                    config.alpha if config.mode.uses_ca else 1.0)
    if config.normalizer_on:
        ref = real(x_dm, tau_dm, cond)
        scale = 1.0 / (np.mean(np.abs(gen_out - ref), axis=1, keepdims=True) + 1e-8)
        d_dm = d_dm * scale
        d_ca = d_ca * scale
    return UpdateDirection(d_dm, d_ca, d_dm + d_ca), tau_ca, tau_dm


def proxy_loss_and_grad(gen_out: np.ndarray, delta_total: np.ndarray,
                        lam: float):
    """Loss ||G - stopgrad(G + lam * delta)||^2 evaluated at G, with its exact
    gradient w.r.t. G: -2 * lam * delta (the frozen target absorbs G)."""
    gen_out = np.asarray(gen_out)
    delta_total = np.asarray(delta_total)
    if gen_out.shape != delta_total.shape:
        raise ValueError("gen_out/delta shape mismatch")
    loss = float(lam * lam * np.sum(delta_total ** 2))
    return loss, (-2.0 * lam) * delta_total


def backward_simulate(gen, grid, k_target: int, cond, rng: np.random.Generator,
                      dim: int | None = None) -> np.ndarray:
    """Produce the generator input for step k_target by running the earlier
    steps with gradients stopped: predict clean, renoise to the next grid
    level with fresh noise."""
    grid = tuple(grid)
    if not _is_int(k_target) or not 1 <= k_target <= len(grid):
        raise ValueError(f"k_target must be an integer in [1, {len(grid)}], "
                         f"got {k_target!r}")
    if isinstance(gen, NetParams):
        dim = gen.config.dim
    elif dim is None:
        raise ValueError("dim is required for injected generators")
    cond = np.asarray(cond)
    n = cond.shape[0]
    z = rng.standard_normal((n, dim))
    for j in range(k_target - 1):
        xhat = gen(z, grid[j], cond)
        z = renoise(xhat, grid[j + 1], rng.standard_normal((n, dim)))
    return z


def sample_generator(gen, grid, cond, rng: np.random.Generator) -> np.ndarray:
    """Few-step inference: backward-simulate with fresh noise to the last
    grid step, then take the final clean prediction."""
    grid = tuple(grid)
    z = backward_simulate(gen, grid, len(grid), cond, rng)
    return gen(z, grid[-1], np.asarray(cond))


def fake_model_update(state: DistillState, gen_samples: np.ndarray, cond,
                      rng: np.random.Generator) -> float:
    """One denoising-regression step of the fake model onto the generator's
    (gradient-stopped) samples; returns the loss before the step."""
    tau = rng.uniform(0.0, 1.0)
    eps = rng.standard_normal(gen_samples.shape)
    x_tau = renoise(gen_samples, tau, eps)
    loss, grads = regression_loss_and_grads(state.fake, x_tau, tau, cond,
                                            gen_samples)
    adam_step(state.fake_opt, state.fake, grads)
    return loss


def meanvar_kl_loss(batch: np.ndarray, mu_target: float, var_target: float):
    """Gaussian-moment KL penalty on per-sample mean/variance.

    loss = (1/B) sum_i 0.5 * ((var_i + (mu_i - mu_t)^2) / var_t
                              - 1 - log(var_i / var_t))
    Returns (loss, gradient w.r.t. the batch). Vanishing per-sample variance
    is clamped away from the log singularity with a warning.
    """
    if not 0 < var_target < math.inf:
        raise ValueError("var_target must be finite and > 0")
    if not math.isfinite(mu_target):
        raise ValueError("mu_target must be finite")
    batch = np.asarray(batch)
    mu, var = batch_sample_stats(batch)
    n, d = batch.shape
    if np.any(var < 1e-12):
        warnings.warn("per-sample variance clamped at 1e-12 (log singularity)")
        var = np.maximum(var, 1e-12)
    vt, mt = var_target, mu_target
    terms = 0.5 * ((var + (mu - mt) ** 2) / vt - 1.0 - np.log(var / vt))
    loss = float(np.mean(terms))
    dmu = (mu - mt) / vt / n
    dvar = 0.5 * (1.0 / vt - 1.0 / var) / n
    grad = (dmu[:, None] + dvar[:, None] * 2.0 * (batch - mu[:, None])) / d
    return loss, grad


def _softplus(z):
    return np.logaddexp(0.0, z)


def gan_losses(disc: NetParams, real_batch: np.ndarray, fake_batch: np.ndarray,
               cond):
    """Non-saturating GAN signals from a scalar-logit discriminator.

    Returns (disc_loss, disc_grads, gen_adv_grad, gen_adv_loss). The
    discriminator loss is mean BCE(real -> 1) + mean BCE(fake -> 0); the
    generator signal is the gradient of sum_i -log sigmoid(D(fake_i)) w.r.t.
    the fake batch (summed, so its per-sample scale matches the proxy term).
    """
    n_r, n_f = real_batch.shape[0], fake_batch.shape[0]
    # the real batch's cache is spent before the fake batch's exists
    logit_r, cache_r = net_forward_cached(disc, real_batch, 0.0, cond)
    lr_ = logit_r[:, 0]
    up_r = ((_sigmoid(lr_) - 1.0) / n_r)[:, None]
    disc_grads = net_backward(disc, cache_r, up_r)
    del cache_r
    logit_f, cache_f = net_forward_cached(disc, fake_batch, 0.0, cond)
    lf_ = logit_f[:, 0]
    disc_loss = float(np.mean(_softplus(-lr_)) + np.mean(_softplus(lf_)))
    up_f = (_sigmoid(lf_) / n_f)[:, None]
    disc_grads.flat += net_backward(disc, cache_f, up_f).flat
    gen_adv_loss = float(np.mean(_softplus(-lf_)))
    up_gen = (_sigmoid(lf_) - 1.0)[:, None]
    gen_grad = net_backward(disc, cache_f, up_gen, input_grad=True)
    return disc_loss, disc_grads, gen_grad, gen_adv_loss


def generator_update(state: DistillState, teacher,
                     config: DistillConfig) -> dict:
    """One full training step: generator phase, then TTUR fake-model phase.

    The teacher and (during the generator phase) the fake model are never
    written to; only forward evaluations of them enter the direction. Returns
    what the step measured: iteration, loss_proxy, loss_fake, loss_reg,
    tau_ca, tau_dm and t. The run loop adds the distribution-level values at
    an evaluation point; metrics.csv_row ignores any other key.
    """
    rng = state.rng_gen
    grid = config.grid
    n_labels = state.generator.config.n_labels
    k = int(rng.integers(1, len(grid) + 1))
    t = grid[k - 1]
    labels = rng.integers(0, n_labels, size=config.batch)
    z_t = backward_simulate(state.generator, grid, k, labels, rng)
    gen_out, cache = net_forward_cached(state.generator, z_t, t, labels)

    direction, tau_ca, tau_dm = dmd_direction_decoupled(
        teacher, state.fake, gen_out, t, labels, config, rng)

    if not np.isfinite(direction.delta_total).all():
        raise NonFiniteError("non-finite update direction", context={
            "iteration": state.iteration + 1, "t": t, "tau_ca": float(tau_ca),
            "tau_dm": float(tau_dm),
            "max_abs_gen_out": float(np.max(np.abs(gen_out))),
        })

    loss_proxy, out_grad = proxy_loss_and_grad(gen_out, direction.delta_total,
                                               config.lam)
    loss_reg = 0.0
    if config.regularizer == Regularizer.MEANVAR_KL:
        total = 0.0
        reg_grad = np.zeros_like(gen_out)
        for label in range(n_labels):
            idx = np.nonzero(labels == label)[0]
            if idx.size == 0:
                continue
            loss_g, grad_g = meanvar_kl_loss(gen_out[idx],
                                             *state.reg_targets[label])
            total += idx.size * loss_g
            reg_grad[idx] = idx.size * grad_g  # sum-form injection
        loss_reg = total / config.batch
        out_grad = out_grad + config.w_meanvar * reg_grad
    elif config.regularizer == Regularizer.GAN:
        real_pts = sample_points_for_labels(state.spec, labels, rng)
        disc_loss, disc_grads, gen_grad, gen_adv_loss = gan_losses(
            state.disc, real_pts, gen_out, labels)
        out_grad = out_grad + config.w_gan * gen_grad
        loss_reg = gen_adv_loss
        adam_step(state.disc_opt, state.disc, disc_grads)

    grads = net_backward(state.generator, cache, out_grad)
    # neither the step nor the TTUR phase reads these; free them first
    del cache, out_grad
    adam_step(state.gen_opt, state.generator, grads)
    del grads

    loss_fake = 0.0
    if config.trains_fake:
        gen_samples = net_forward(state.generator, z_t, t, labels)
        for _ in range(config.ttur_ratio):
            loss_fake = fake_model_update(state, gen_samples, labels,
                                          state.rng_fake)

    state.iteration += 1
    return {"iteration": state.iteration, "loss_proxy": loss_proxy,
            "loss_fake": loss_fake, "loss_reg": loss_reg,
            "tau_ca": float(tau_ca), "tau_dm": float(tau_dm), "t": float(t)}


def observer_probe(state: DistillState, teacher, probe_points: np.ndarray,
                   taus, cond, *, artifact_dir,
                   rng: np.random.Generator):
    """Evaluate the DM term over probe points at each noise level.

    Returns one row (tau, mean L2 norm of delta_dm, mean <delta_dm, v>) per
    tau, where v is artifact_dir, the known artifact direction.
    """
    probe_points = np.asarray(probe_points)
    rows = []
    for tau in taus:
        eps = rng.standard_normal(probe_points.shape)
        x_tau = renoise(probe_points, float(tau), eps)
        d = delta_dm(teacher, state.fake, x_tau, float(tau), cond)
        mag = float(np.mean(np.linalg.norm(d, axis=1)))
        rows.append((float(tau), mag, float(np.mean(d @ artifact_dir))))
    return rows
