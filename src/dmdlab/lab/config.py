"""JSON run configurations with key-aware validation.

One table per config file, RUN_KEYS and TEACHER_KEYS, gives each key its
check and its default; a key that feeds a typed-config field reads the
field's default. Loaders return the validated config as a plain dict.
Schema violations raise ConfigError naming the offending key; the CLI turns
that into exit code 2. The LAB_SEED environment variable overrides the seed at
load time and is baked into snapshots so that a snapshot re-runs identically
regardless of the environment.
"""

import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from ..checkpoint import load_params
from ..data import MixtureSpec, gmm8, is_integer, unique_keys as _unique_keys
from ..distill import DistillConfig, Mode, Regularizer, SchedulePolicy
from ..flow import TeacherConfig


class ConfigError(ValueError):
    def __init__(self, key, message):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


REQUIRED = object()  # a key with no default
RANGE = "[lo, hi]"   # kind of a noise-level range
LEVELS = "levels"    # kind of a step grid

# typed-config fields whose key is spelled differently
FIELD_KEYS = {"lam": "lambda"}


@dataclass(frozen=True)
class Key:
    """One row of a config file's table: a key's check and its default."""

    kind: object = float      # float, int, bool, str, an Enum, RANGE or LEVELS
    default: object = REQUIRED
    lo: float | None = None   # the lower bound no typed config checks


RUN_KEYS = {
    "mode": Key(Mode),
    "schedule_policy": Key(SchedulePolicy),
    "alpha": Key(),
    "lambda": Key(),
    "n_steps": Key(int),
    "ttur_ratio": Key(int),
    "regularizer": Key(Regularizer),
    "w_gan": Key(),
    "normalizer_on": Key(bool),
    "seed": Key(int, lo=0),
    "iterations": Key(int, lo=1),
    "batch": Key(int),
    "tau_ca_range": Key(RANGE, DistillConfig.tau_ca_range),
    "tau_dm_range": Key(RANGE, DistillConfig.tau_dm_range),
    "w_meanvar": Key(float, DistillConfig.w_meanvar),
    "eval_every": Key(int, 100, lo=1),
    "eval_n": Key(int, 1024, lo=4),
    "eval_ref_n": Key(int, 10_000, lo=4),
    "data": Key(str, "gmm8"),
    "teacher": Key(str, None),
    "out_dir": Key(str, None),
    "lr_gen": Key(float, DistillConfig.lr_gen),
    "lr_fake": Key(float, DistillConfig.lr_fake),
    "step_grid": Key(LEVELS, DistillConfig.step_grid),
    "observer_mode": Key(bool, DistillConfig.observer_mode),
}

TEACHER_KEYS = {
    "iterations": Key(int),
    "batch": Key(int),
    "lr": Key(),
    "p_uncond": Key(),
    "seed": Key(int, lo=0),
    "data": Key(str, "gmm8"),
    "out": Key(str, "teacher.ckpt"),
    "log": Key(str, None),
    "lr_final": Key(float, TeacherConfig.lr_final),
    "ema_decay": Key(float, TeacherConfig.ema_decay),
}


def build(config, cfg: dict):
    """The typed config of a checked dict; a field no key feeds keeps its
    default."""
    return config(**{f.name: cfg[key] for f in fields(config)
                     if (key := FIELD_KEYS.get(f.name, f.name)) in cfg})


def _finite(value) -> bool:
    # bools are not numbers here; NaN, +-inf and ints beyond the float range
    # all fail the magnitude test
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _levels_ok(value, n=None) -> bool:
    return (isinstance(value, (list, tuple))
            and 0 < len(value) == (n or len(value))
            and all(map(_finite, value)))


def _check(key, spec: Key, value):
    """The value once its kind and bound are checked: integers become int
    and ranges [float, float] (the snapshot bytes depend on both)."""
    kind = spec.kind
    if value is None and spec.default is None:
        return None
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(key, "expected true/false")
    elif kind is str:
        if not isinstance(value, str):
            raise ConfigError(key, f"expected a string, got {value!r}")
        if "\0" in value:  # every string key is a path or a name
            raise ConfigError(key, "a NUL character cannot be part of a path")
    elif kind is RANGE:
        if not _levels_ok(value, 2):
            raise ConfigError(key, "expected [lo, hi]")
        return [float(value[0]), float(value[1])]
    elif kind is LEVELS:
        if not _levels_ok(value):
            raise ConfigError(key, "expected a list of finite levels")
    elif kind in (int, float):
        if not _finite(value):
            raise ConfigError(key, f"expected a finite number, got {value!r}")
        if kind is int and not is_integer(value):
            raise ConfigError(key, f"expected an integer, got {value!r}")
        if spec.lo is not None and value < spec.lo:
            raise ConfigError(key, f"must be >= {spec.lo}, got {value}")
        return int(value) if kind is int else value
    else:
        choices = [e.value for e in kind]
        if value not in choices:  # a list, so unhashable values fail cleanly
            raise ConfigError(key, f"must be one of {choices}")
    return value


def _check_file(key, value):
    # a missing input must fail at load, before a run directory exists
    if not Path(value).is_file():
        raise ConfigError(key, f"no such file: {value}")


def check_outputs(rows) -> None:
    """Raise ConfigError under the key of the first (key, path, is_dir) row
    that cannot be written, before anything is: a part of its path exists as
    the wrong kind, or it is a file that another row's path goes into or
    that an earlier row also writes."""
    rows = [(key, Path(path).resolve(), is_dir) for key, path, is_dir in rows]
    into = ({path for _, path, is_dir in rows if is_dir}
            | {p for _, path, _ in rows for p in path.parents})
    files = set()
    for key, path, is_dir in rows:
        if not is_dir:
            if path in into:
                raise ConfigError(key, f"{path} is also a directory to write "
                                  "into")
            if path in files:
                raise ConfigError(key, f"{path} is also another output")
            files.add(path)
        part = next(p for p in (path, *path.parents) if p.exists())
        want_dir = is_dir or part != path
        if part.is_dir() != want_dir:
            raise ConfigError(key, f"{part} exists and is "
                              f"{'not ' if want_dir else ''}a directory")


def resolve_data(value) -> MixtureSpec:
    """The mixture a config's data key names: gmm8, or a mixture spec file."""
    if value == "gmm8":
        return gmm8()
    _check_file("data", value)
    try:
        return MixtureSpec.load(value)
    except ValueError as e:  # JSON, UTF-8 and a key given twice too
        raise ConfigError("data", f"{value}: not a valid mixture spec: {e}")


def _check_teacher(value, spec: MixtureSpec) -> None:
    _check_file("teacher", value)
    try:
        net = load_params(value).config
    except ValueError as e:  # the message names the file
        raise ConfigError("teacher", str(e))
    if (net.dim, net.out_dim, net.n_labels) != (spec.dim, spec.dim,
                                                spec.label_count):
        raise ConfigError(
            "teacher", f"{value}: a network with input dim {net.dim}, output "
            f"dim {net.out_dim} and {net.n_labels} labels does not fit "
            f"the data's dim {spec.dim} and {spec.label_count} labels")


def _load(raw, keys: dict, config, what: str) -> dict:
    """A config file's checks in order: object, missing keys, unknown keys,
    LAB_SEED, each key's kind and bound, the data and teacher files, the
    data's dim, then the typed config's value ranges."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"{what}: top level must be a JSON object")
    for key, spec in keys.items():
        if spec.default is REQUIRED and key not in raw:
            raise ConfigError(key, "missing required key")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")
    cfg = {key: raw.get(key, spec.default) for key, spec in keys.items()}
    env = os.environ.get("LAB_SEED")
    if env is not None:
        try:
            cfg["seed"] = int(env)
        except ValueError:
            raise ConfigError("seed", f"LAB_SEED must be an integer, got {env!r}")
    cfg = {key: _check(key, spec, cfg[key]) for key, spec in keys.items()}
    mixture = resolve_data(cfg["data"])
    if cfg.get("teacher") is not None:
        _check_teacher(cfg["teacher"], mixture)
    if mixture.dim < 2:  # every metrics row needs per-sample variance
        raise ConfigError("data", f"{cfg['data']}: dim must be >= 2, got "
                          f"{mixture.dim}")
    try:
        build(config, cfg)
    except ValueError as e:
        # the typed config starts each message with the key at fault
        raise ConfigError(str(e).split(" ", 1)[0], str(e))
    return cfg


def unique_keys(pairs) -> dict:
    """A JSON object's or --override's pairs as a dict, none given twice."""
    return _unique_keys(pairs, lambda key: ConfigError(key, "given twice"))


def _load_json(path):
    # OSError: missing or unreadable; ValueError: not UTF-8, or not JSON
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=unique_keys)
    except ConfigError:  # a key given twice, already named
        raise
    except (OSError, ValueError) as e:
        raise ConfigError("<json>", f"{path}: {e}")


def run_config_from_dict(raw: dict) -> dict:
    return _load(raw, RUN_KEYS, DistillConfig, "run config")


def load_run_config(path) -> dict:
    return run_config_from_dict(_load_json(path))


def teacher_config_from_dict(raw: dict) -> dict:
    return _load(raw, TEACHER_KEYS, TeacherConfig, "teacher config")


def load_teacher_config(path) -> dict:
    return teacher_config_from_dict(_load_json(path))
