"""JSON run configurations with key-aware validation.

Loaders return the validated config as a plain dict. Schema violations raise
ConfigError naming the offending key; the CLI turns that into exit code 2.
The LAB_SEED environment variable overrides the seed at load time and is
baked into snapshots so that a snapshot re-runs identically regardless of
the environment.
"""

import json
import os
import sys
from pathlib import Path

from ..checkpoint import load_params
from ..data import MixtureSpec, gmm8
from ..distill import DistillConfig, Mode, Regularizer, ScheduleConfig, SchedulePolicy
from ..flow import TeacherConfig


class ConfigError(ValueError):
    def __init__(self, key, message):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


RUN_REQUIRED = ["mode", "schedule_policy", "alpha", "lambda", "n_steps",
                "ttur_ratio", "regularizer", "w_gan", "normalizer_on", "seed",
                "iterations", "batch"]

RUN_OPTIONAL = {
    "tau_ca_range": None,
    "tau_dm_range": None,
    "w_meanvar": 1.0,
    "eval_every": 100,
    "eval_n": 1024,
    "eval_ref_n": 10_000,
    "data": "gmm8",
    "teacher": None,
    "out_dir": None,
    "lr_gen": 1e-4,
    "lr_fake": 1e-4,
    "backward_sim_fresh_noise": True,
    "meanvar_mu_target": None,
    "meanvar_var_target": None,
    "radius_mult": 3.0,
    "step_grid": None,
    "observer_mode": False,
}

TEACHER_REQUIRED = ["iterations", "batch", "lr", "p_uncond", "seed"]
TEACHER_OPTIONAL = {
    "data": "gmm8",
    "out": "teacher.ckpt",
    "log": None,
    "lr_final": 1e-5,
    "ema_decay": None,
}

# integer keys with the bounds no typed config checks; JSON tools occasionally
# write them as floats, so they are normalized to int after the check
_RUN_INTS = {"n_steps": None, "ttur_ratio": None, "seed": 0, "iterations": 1,
             "batch": None, "eval_every": 1, "eval_n": 4, "eval_ref_n": 4}
_TEACHER_INTS = {"iterations": None, "batch": None, "seed": 0}


def distill_config(cfg: dict) -> DistillConfig:
    return DistillConfig(
        alpha=cfg["alpha"], lam=cfg["lambda"], n_steps=cfg["n_steps"],
        step_grid=cfg["step_grid"], ttur_ratio=cfg["ttur_ratio"],
        mode=cfg["mode"], regularizer=cfg["regularizer"],
        normalizer_on=cfg["normalizer_on"], w_gan=cfg["w_gan"],
        w_meanvar=cfg["w_meanvar"], batch=cfg["batch"], lr_gen=cfg["lr_gen"],
        lr_fake=cfg["lr_fake"],
        backward_sim_fresh_noise=cfg["backward_sim_fresh_noise"],
        meanvar_mu_target=cfg["meanvar_mu_target"],
        meanvar_var_target=cfg["meanvar_var_target"],
    )


def schedule_config(cfg: dict) -> ScheduleConfig:
    return ScheduleConfig(
        policy=cfg["schedule_policy"], tau_ca_range=cfg["tau_ca_range"],
        tau_dm_range=cfg["tau_dm_range"])


def teacher_config(cfg: dict) -> TeacherConfig:
    return TeacherConfig(iterations=cfg["iterations"], batch=cfg["batch"],
                         lr=cfg["lr"], lr_final=cfg["lr_final"],
                         p_uncond=cfg["p_uncond"], ema_decay=cfg["ema_decay"])


def _finite(value) -> bool:
    # bools are not numbers here; NaN, +-inf and ints beyond the float range
    # all fail the magnitude test
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_number(key, value, kind=float, lo=None, optional=False):
    if optional and value is None:
        return
    if not _finite(value):
        raise ConfigError(key, f"expected a finite number, got {value!r}")
    if kind is int and int(value) != value:
        raise ConfigError(key, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(key, f"must be >= {lo}, got {value}")


def _check_str(key, value, optional=False):
    if not (isinstance(value, str) or optional and value is None):
        raise ConfigError(key, f"expected a string, got {value!r}")


def _check_file(key, value):
    # a missing input must fail at load, before a run directory exists
    if not Path(value).is_file():
        raise ConfigError(key, f"no such file: {value}")


def resolve_data(value) -> MixtureSpec:
    """The mixture a config's data key names: gmm8, or a mixture spec file."""
    if value == "gmm8":
        return gmm8()
    _check_file("data", value)
    try:
        return MixtureSpec.load(value)
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError too
        raise ConfigError("data", f"{value}: not a valid mixture spec: {e}")


def _check_teacher(value, spec: MixtureSpec) -> None:
    _check_file("teacher", value)
    try:
        net = load_params(value).config
    except ValueError as e:  # the message names the file
        raise ConfigError("teacher", str(e))
    if (net.dim, net.output_dim, net.n_labels) != (spec.dim, spec.dim,
                                                   spec.label_count):
        raise ConfigError(
            "teacher", f"{value}: a network with input dim {net.dim}, output "
            f"dim {net.output_dim} and {net.n_labels} labels does not fit "
            f"the data's dim {spec.dim} and {spec.label_count} labels")


def _check_choice(key, value, enum):
    choices = [e.value for e in enum]
    if value not in choices:  # a list, so unhashable values fail cleanly
        raise ConfigError(key, f"must be one of {choices}")


def _levels_ok(value, n=None) -> bool:
    return (isinstance(value, (list, tuple))
            and 0 < len(value) == (n or len(value))
            and all(map(_finite, value)))


def _check_range(key, value):
    if value is None:
        return None
    if not _levels_ok(value, 2):
        raise ConfigError(key, "expected [lo, hi]")
    return [float(value[0]), float(value[1])]


def _check_ints(values: dict, bounds: dict) -> None:
    for key, lo in bounds.items():
        _check_number(key, values[key], kind=int, lo=lo)
        values[key] = int(values[key])


def _merge(raw: dict, required, optional, path):
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"{path}: top level must be a JSON object")
    values = {}
    for key in required:
        if key not in raw:
            raise ConfigError(key, "missing required key")
        values[key] = raw[key]
    for key, default in optional.items():
        values[key] = raw.get(key, default)
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")
    return values


def validate_run_values(values: dict) -> dict:
    _check_choice("mode", values["mode"], Mode)
    _check_choice("schedule_policy", values["schedule_policy"], SchedulePolicy)
    _check_choice("regularizer", values["regularizer"], Regularizer)
    _check_number("alpha", values["alpha"])
    _check_number("lambda", values["lambda"])
    _check_ints(values, _RUN_INTS)
    _check_number("w_gan", values["w_gan"])
    _check_number("w_meanvar", values["w_meanvar"])
    for key in ("normalizer_on", "backward_sim_fresh_noise", "observer_mode"):
        if not isinstance(values[key], bool):
            raise ConfigError(key, "expected true/false")
    _check_number("lr_gen", values["lr_gen"])
    _check_number("lr_fake", values["lr_fake"])
    _check_number("radius_mult", values["radius_mult"], lo=1e-9)
    _check_number("meanvar_mu_target", values["meanvar_mu_target"],
                  optional=True)
    _check_number("meanvar_var_target", values["meanvar_var_target"],
                  optional=True)
    _check_str("data", values["data"])
    _check_str("teacher", values["teacher"], optional=True)
    _check_str("out_dir", values["out_dir"], optional=True)
    spec = resolve_data(values["data"])
    if values["teacher"] is not None:
        _check_teacher(values["teacher"], spec)
    values["tau_ca_range"] = _check_range("tau_ca_range", values["tau_ca_range"])
    values["tau_dm_range"] = _check_range("tau_dm_range", values["tau_dm_range"])
    grid = values["step_grid"]
    if grid is not None and not _levels_ok(grid):
        raise ConfigError("step_grid", "expected a list of finite levels")
    return values


def _apply_env_seed(values: dict) -> dict:
    env = os.environ.get("LAB_SEED")
    if env is not None:
        try:
            values["seed"] = int(env)
        except ValueError:
            raise ConfigError("seed", f"LAB_SEED must be an integer, got {env!r}")
    return values


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError("<json>", f"{path}: {e}")


def _keyed(err: ValueError, cfg: dict) -> ConfigError:
    # the typed configs start each message with the key at fault
    key = str(err).split(" ", 1)[0]
    return ConfigError(key if key in cfg else "<combination>", str(err))


def run_config_from_dict(raw: dict) -> dict:
    cfg = validate_run_values(_apply_env_seed(
        _merge(raw, RUN_REQUIRED, RUN_OPTIONAL, "run config")))
    # construct once so invalid combinations surface as ConfigError here
    try:
        distill_config(cfg).validate()
        schedule_config(cfg)
    except ValueError as e:
        raise _keyed(e, cfg)
    return cfg


def load_run_config(path) -> dict:
    return run_config_from_dict(_load_json(path))


def teacher_config_from_dict(raw: dict) -> dict:
    cfg = _apply_env_seed(
        _merge(raw, TEACHER_REQUIRED, TEACHER_OPTIONAL, "teacher config"))
    _check_ints(cfg, _TEACHER_INTS)
    _check_number("lr", cfg["lr"])
    _check_number("p_uncond", cfg["p_uncond"])
    _check_number("lr_final", cfg["lr_final"], optional=True)
    _check_number("ema_decay", cfg["ema_decay"], optional=True)
    for key in ("data", "out"):
        _check_str(key, cfg[key])
    _check_str("log", cfg["log"], optional=True)
    resolve_data(cfg["data"])
    try:
        teacher_config(cfg).validate()
    except ValueError as e:
        raise _keyed(e, cfg)
    return cfg


def load_teacher_config(path) -> dict:
    return teacher_config_from_dict(_load_json(path))
