"""Adaptive-moment optimizer and exponential moving average over NetParams."""

from dataclasses import dataclass

import numpy as np

from .net import NetParams, NonFiniteError, check_number, zeros_like_params

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: NetParams
    v: NetParams
    step: int
    lr: float


def init_adam(params: NetParams, lr: float) -> AdamState:
    return AdamState(zeros_like_params(params), zeros_like_params(params), 0,
                     lr)


def adam_step(state: AdamState, params: NetParams, grads: NetParams):
    """One bias-corrected update over the flat buffers, in place. Returns
    (state, params). A gradient that is not finite, or whose square
    overflows, raises NonFiniteError before anything changes; its context
    names the first such slot."""
    g = grads.flat
    if g.shape != params.flat.shape:
        raise ValueError("gradient/parameter shape mismatch")
    with np.errstate(over="ignore"):
        sq = np.square(g)
    # one scan catches NaN, +-inf and a square past the float64 range
    finite = np.isfinite(sq)
    if not finite.all():
        bad = int(finite.argmin())  # the first non-finite entry of flat
        for slot, array in grads.slots():
            if bad < array.size:
                break
            bad -= array.size
        raise NonFiniteError("non-finite gradients", {"slot": slot},
                             params=params)
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    c2 = 1.0 - BETA2 ** state.step
    m, v = state.m.flat, state.v.flat
    tmp = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += tmp
    sq *= 1.0 - BETA2
    v *= BETA2
    v += sq
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in that operation order
    np.divide(v, c2, out=sq)
    np.sqrt(sq, out=sq)
    sq += EPS
    np.divide(m, c1, out=tmp)
    tmp *= state.lr
    tmp /= sq
    params.flat -= tmp
    return state, params


def ema_update(ema: NetParams, live: NetParams, decay: float) -> NetParams:
    """ema <- decay * ema + (1 - decay) * live, elementwise and in place."""
    check_number("decay", decay, 0, 1, ends="[]")
    if ema.flat.shape != live.flat.shape:
        raise ValueError("ema/live shape mismatch")
    ema.flat *= decay
    ema.flat += (1.0 - decay) * live.flat
    return ema
