"""Every scalar argument of the library passes one check, net.check_number.

For each argument the check covers, a bool, a string, None, a list, NaN,
+-inf, an integer past the float range, a value just outside each bound and
a fraction where an integer is needed are all refused with a ValueError that
starts with the argument's name, before anything is drawn from an RNG; every
finite value inside the bounds, numpy's scalars included, is accepted.
"""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdlab.data import gmm8, sample_dataset
from dmdlab.distill import (DistillConfig, backward_simulate, delta_ca,
                            meanvar_kl_loss)
from dmdlab.flow import TeacherConfig, cfg_combine, sample_teacher
from dmdlab.metrics import sliced_wasserstein2
from dmdlab.net import NetConfig, init_params
from dmdlab.optim import ema_update

INF = math.inf
NET = init_params(NetConfig(dim=2, n_labels=2, hidden=4, n_hidden=1),
                  np.random.default_rng(0))
POINTS = np.arange(12.0).reshape(4, 3)  # every row has positive variance


def zeros(z, t, cond):
    return np.zeros_like(z)


@dataclass(frozen=True)
class Arg:
    """One checked argument: the first word of its messages, a call that
    passes a value to it, and the interval of values the call accepts."""

    name: str
    call: object          # call(value, rng)
    lo: float
    hi: float = INF
    ends: str = "[)"
    integer: bool = False
    nullable: bool = False  # None is a valid value: the field's default


def _net_arg(field):
    return Arg(field, lambda v, rng: NetConfig(
        **{"dim": 2, "n_labels": 4, field: v}),
        0 if field == "n_hidden" else 1, integer=True,
        nullable=field == "out_dim")


def _distill_arg(field, name=None, lo=0, ends="[)", integer=False):
    return Arg(name or field, lambda v, rng: DistillConfig(**{field: v}),
               lo, ends=ends, integer=integer)


def _range_arg(key, i):
    # one end of the range is v, the other the bound it must stay inside
    return Arg(key, lambda v, rng: DistillConfig(
        **{key: (v, 1.0) if i == 0 else (0.0, v)}), 0, 1, ("[)", "(]")[i])


def _teacher_arg(field, lo, hi=INF, ends="[)", integer=False, **fixed):
    return Arg(field, lambda v, rng: TeacherConfig(**{**fixed, field: v}),
               lo, hi, ends, integer, nullable=field == "ema_decay")


ARGS = {
    **{f"NetConfig.{field}": _net_arg(field)
       for field in ("dim", "n_labels", "hidden", "n_hidden", "out_dim",
                     "cond_dim", "temb_dim", "n_freq")},
    "DistillConfig.alpha": _distill_arg("alpha"),
    "DistillConfig.lam": _distill_arg("lam", "lambda", ends="()"),
    "DistillConfig.ttur_ratio": _distill_arg("ttur_ratio", integer=True),
    "DistillConfig.batch": _distill_arg("batch", lo=1, integer=True),
    "DistillConfig.w_gan": _distill_arg("w_gan"),
    "DistillConfig.w_meanvar": _distill_arg("w_meanvar"),
    "DistillConfig.lr_gen": _distill_arg("lr_gen", ends="()"),
    "DistillConfig.lr_fake": _distill_arg("lr_fake", ends="()"),
    # a range's low end below a high end of 1, its high end above a low end
    # of 0; a level above the grid's first, 0
    **{f"DistillConfig.{key}[{i}]": _range_arg(key, i)
       for key in ("tau_ca_range", "tau_dm_range") for i in (0, 1)},
    "DistillConfig.step_grid[1]": Arg("step_grid", lambda v, rng:
                                      DistillConfig(n_steps=2,
                                                    step_grid=(0.0, v)),
                                      0, 1, "()"),
    "TeacherConfig.iterations": _teacher_arg("iterations", 1, integer=True),
    "TeacherConfig.batch": _teacher_arg("batch", 1, integer=True),
    "TeacherConfig.lr": Arg("lr", lambda v, rng: TeacherConfig(
        lr=v, lr_final=v), 0, ends="()"),
    "TeacherConfig.lr_final": _teacher_arg("lr_final", 0, 1e-3, "(]",
                                           lr=1e-3),
    "TeacherConfig.p_uncond": _teacher_arg("p_uncond", 0, 1, "()"),
    "TeacherConfig.ema_decay": _teacher_arg("ema_decay", 0, 1, "[]"),
    "cfg_combine.alpha": Arg("alpha", lambda v, rng: cfg_combine(
        np.ones((2, 2)), np.zeros((2, 2)), v), 0),
    "sample_teacher.alpha": Arg("alpha", lambda v, rng: sample_teacher(
        zeros, 2, v, 0, 4, rng, dim=2), 0),
    "sample_teacher.n_steps": Arg("n_steps", lambda v, rng: sample_teacher(
        zeros, v, 1.0, 0, 4, rng, dim=2), 1, integer=True),
    "delta_ca.alpha": Arg("alpha", lambda v, rng: delta_ca(
        zeros, np.zeros((3, 2)), 0.5, 0, v), 0),
    "backward_simulate.k_target": Arg("k_target", lambda v, rng:
                                      backward_simulate(
                                          zeros, (0.0, 0.5), v,
                                          np.zeros(3, int), rng, dim=2),
                                      1, 2, "[]", integer=True),
    "meanvar_kl_loss.mu_target": Arg("mu_target", lambda v, rng:
                                     meanvar_kl_loss(POINTS, v, 1.0),
                                     -INF, ends="()"),
    "meanvar_kl_loss.var_target": Arg("var_target", lambda v, rng:
                                      meanvar_kl_loss(POINTS, 0.0, v),
                                      0, ends="()"),
    "ema_update.decay": Arg("decay", lambda v, rng: ema_update(
        NET.copy(), NET, v), 0, 1, "[]"),
    "sample_dataset.n": Arg("n", lambda v, rng: sample_dataset(gmm8(), v, rng),
                            1, integer=True),
    "sliced_wasserstein2.n_proj": Arg("n_proj", lambda v, rng:
                                      sliced_wasserstein2(POINTS, POINTS, v,
                                                          rng),
                                      1, integer=True),
}


def bad_values(arg: Arg) -> dict:
    """id -> a value the argument must refuse."""
    bad = {"true": True, "false": False, "str": "x", "list": [0.5],
           "nan": math.nan, "inf": INF, "-inf": -INF, "huge": 10 ** 400,
           "-huge": -10 ** 400}
    if not arg.nullable:
        bad["none"] = None
    if arg.integer:
        bad["fraction"] = 2.5
        bad["below"] = arg.lo - 1
        if arg.hi < INF:
            bad["above"] = arg.hi + 1
        return bad
    if arg.lo > -INF:
        bad["below"] = (arg.lo if arg.ends[0] == "("
                        else math.nextafter(arg.lo, -INF))
    if arg.hi < INF:
        bad["above"] = (arg.hi if arg.ends[1] == ")"
                        else math.nextafter(arg.hi, INF))
    return bad


BAD = [pytest.param(arg, value, id=f"{case}-{vid}")
       for case, arg in ARGS.items()
       for vid, value in bad_values(arg).items()]


@pytest.mark.parametrize("arg,value", BAD)
def test_refused_under_its_name_before_any_draw(arg, value):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{re.escape(arg.name)} "):
        arg.call(value, rng)
    assert rng.bit_generator.state == before


@st.composite
def in_range(draw, arg: Arg):
    """A value the argument accepts: a float or an integer inside its
    interval, as a Python or a numpy scalar."""
    lo_open, hi_open = arg.ends[0] == "(", arg.ends[1] == ")"
    # the integers inside, at most ten of them
    lo = (-9 if arg.lo == -INF
          else math.floor(arg.lo) + 1 if lo_open else math.ceil(arg.lo))
    hi = (lo + 9 if arg.hi == INF
          else math.ceil(arg.hi) - 1 if hi_open else math.floor(arg.hi))
    ints = st.integers(lo, hi).map(draw(st.sampled_from([int, np.int64])))
    if arg.integer:
        return draw(ints)
    floats = st.floats(arg.lo, arg.hi, exclude_min=lo_open,
                       exclude_max=hi_open, allow_nan=False,
                       allow_infinity=False).map(
        draw(st.sampled_from([float, np.float64])))
    return draw(st.one_of(floats, ints) if lo <= hi else floats)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_value_in_range_accepted(data):
    arg = ARGS[data.draw(st.sampled_from(sorted(ARGS)))]
    value = data.draw(in_range(arg))
    with np.errstate(all="ignore"):
        arg.call(value, np.random.default_rng(0))


@pytest.mark.parametrize("call,message", [
    (lambda: TeacherConfig(lr=1e-3, lr_final=0.01),
     "lr_final must be a finite number in (0, 0.001], got 0.01"),
    (lambda: DistillConfig(batch=2.5),
     "batch must be an integer in [1, inf), got 2.5"),
    (lambda: DistillConfig(alpha=True),
     "alpha must be a finite number in [0, inf), got True"),
    (lambda: DistillConfig(tau_ca_range=("0.1", 0.5)),
     "tau_ca_range endpoint must be a finite number in [0, 1], got '0.1'"),
    (lambda: TeacherConfig(iterations=10 ** 5000),
     "iterations must be an integer in [1, inf), got an integer past the "
     "float range"),
])
def test_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("value", [0.5, "ab", {"lo": 0.1, "hi": 0.5},
                                   (0.1, 0.3, 0.5), np.array([0.1, 0.5])])
def test_range_that_is_not_a_pair_refused(value):
    # an array has no truth value, which DistillConfig.ranges() tests
    with pytest.raises(ValueError, match=r"^tau_dm_range must be \[lo, hi\] "):
        DistillConfig(tau_dm_range=value)
