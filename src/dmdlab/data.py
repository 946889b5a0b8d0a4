"""Synthetic conditional Gaussian mixtures with exact moment formulas.

These mixtures play the real-data role: the teacher trains on them, the GAN
regularizer draws real batches from them, and evaluation compares generated
clouds against held-out draws.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .net import check_number


@dataclass
class Component:
    label: int
    center: np.ndarray
    cov: np.ndarray  # diagonal entries
    weight: float


@dataclass
class MixtureSpec:
    dim: int
    label_count: int
    components: list

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.dim < 1 or self.label_count < 1:
            raise ValueError("dim and label_count must be positive")
        totals = {}
        for c in self.components:
            if not 0 <= c.label < self.label_count:
                raise ValueError(f"component label {c.label} out of range")
            if c.center.shape != (self.dim,) or c.cov.shape != (self.dim,):
                raise ValueError("component center/cov must match dim")
            if not (np.isfinite(c.center).all() and np.isfinite(c.cov).all()):
                raise ValueError("component center/cov must be finite")
            if np.any(c.cov <= 0):
                raise ValueError("covariances must be strictly positive")
            if not c.weight > 0:  # NaN fails too
                raise ValueError("weights must be positive")
            totals[c.label] = totals.get(c.label, 0.0) + c.weight
        for label in range(self.label_count):
            if label not in totals:
                raise ValueError(f"label {label} has no components")
            if not abs(totals[label] - 1.0) <= 1e-9:
                raise ValueError(f"label {label} weights sum to {totals[label]}, not 1")

    def components_for(self, label: int) -> list:
        if not 0 <= label < self.label_count:
            raise ValueError(f"unknown label {label}")
        return [c for c in self.components if c.label == label]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "labels": self.label_count,
            "components": [
                {"label": c.label, "center": list(map(float, c.center)),
                 "cov": list(map(float, c.cov)), "weight": float(c.weight)}
                for c in self.components
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MixtureSpec":
        """Build and validate a spec; any malformed object is a ValueError."""
        try:
            return cls(
                dim=_integer(obj, "dim"),
                label_count=_integer(obj, "labels"),
                components=[
                    Component(label=_integer(c, "label"),
                              center=np.asarray(c["center"], dtype=float),
                              cov=np.asarray(c["cov"], dtype=float),
                              weight=float(c["weight"]))
                    for c in obj["components"]
                ],
            )
        except (KeyError, TypeError, OverflowError) as e:
            raise ValueError(f"missing or malformed field: {e!r}") from e

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "MixtureSpec":
        return cls.from_json(json.loads(Path(path).read_text(),
                                        object_pairs_hook=unique_keys))


def unique_keys(pairs, given_twice=lambda key: ValueError(
        f"{key!r}: given twice")) -> dict:
    """pairs as a dict; a key given twice raises given_twice(key)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise given_twice(key)
        obj[key] = value
    return obj


def is_integer(value) -> bool:
    """2 and 2.0 are integers; 2.9, true, "2", NaN and inf are not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and float(value).is_integer())


def _integer(obj: dict, key: str) -> int:
    if not is_integer(value := obj[key]):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass
class LabeledBatch:
    points: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)


def gmm8() -> MixtureSpec:
    """Default benchmark: 8 modes of std 0.15 on a circle of radius 2, 2 per
    label, 4 labels.

    Label 3 gets asymmetric mode weights (0.7/0.3) so that guidance scales
    above 1 visibly sharpen its conditional.
    """
    comps = []
    for label in range(4):
        weights = (0.7, 0.3) if label == 3 else (0.5, 0.5)
        for j, w in enumerate(weights):
            angle = (2 * label + j) * np.pi / 4
            comps.append(Component(
                label=label,
                center=2.0 * np.array([np.cos(angle), np.sin(angle)]),
                cov=np.full(2, 0.15 ** 2),
                weight=w,
            ))
    return MixtureSpec(dim=2, label_count=4, components=comps)


def sample_points_for_labels(spec: MixtureSpec, labels: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """Draw one point per given label (component by weight, then Gaussian).
    Every label must be one of the spec's; a ValueError names the first one
    that is not, before anything is drawn from rng."""
    labels = np.asarray(labels)
    rows = [np.nonzero(labels == label)[0] for label in range(spec.label_count)]
    if sum(idx.size for idx in rows) != labels.size:
        bad = labels[~np.isin(labels, np.arange(spec.label_count))]
        raise ValueError(f"unknown label {bad.flat[0]}: the spec has labels "
                         f"0..{spec.label_count - 1}")
    points = np.empty((len(labels), spec.dim))
    for label, idx in enumerate(rows):
        if idx.size == 0:
            continue
        comps = spec.components_for(label)
        w = np.array([c.weight for c in comps])
        centers = np.stack([c.center for c in comps])
        stds = np.sqrt(np.stack([c.cov for c in comps]))
        choice = rng.choice(len(comps), size=idx.size, p=w / w.sum())
        eps = rng.standard_normal((idx.size, spec.dim))
        points[idx] = centers[choice] + stds[choice] * eps
    return points


def sample_dataset(spec: MixtureSpec, n: int,
                   rng: np.random.Generator) -> LabeledBatch:
    """Draw n i.i.d. labelled points: label uniform, component by weight
    within the label, point Gaussian around the component center."""
    check_number("n", n, 1, integer=True)
    labels = rng.integers(0, spec.label_count, size=n)
    return LabeledBatch(points=sample_points_for_labels(spec, labels, rng),
                        labels=labels)


def target_stats(spec: MixtureSpec, label: int):
    """Exact mixture mean and per-coordinate variance for one label."""
    comps = spec.components_for(label)
    w = np.array([c.weight for c in comps])
    centers = np.stack([c.center for c in comps])
    covs = np.stack([c.cov for c in comps])
    mean = (w[:, None] * centers).sum(axis=0)
    second = (w[:, None] * (covs + centers ** 2)).sum(axis=0)
    return mean, second - mean ** 2


def expected_sample_stats(spec: MixtureSpec, label=None):
    """Expected per-sample statistics ( E[mean over coords], E[var over coords] ).

    The per-sample variance is the population variance across one point's
    coordinates; its expectation is exact for diagonal Gaussian mixtures:
    E[var(x)] = (1/d) sum_j (s_j^2 + c_j^2) - (1/d^2) sum_j s_j^2 - mean(c)^2
    per component, mixed by weight. label=None pools labels uniformly.
    """
    if label is None:
        pairs = [expected_sample_stats(spec, lb) for lb in range(spec.label_count)]
        return (float(np.mean([p[0] for p in pairs])),
                float(np.mean([p[1] for p in pairs])))
    comps = spec.components_for(label)
    mu = var = 0.0
    for c in comps:
        cmean = c.center.mean()
        mu += c.weight * cmean
        e_var = ((c.cov + c.center ** 2).sum() / spec.dim
                 - c.cov.sum() / spec.dim ** 2 - cmean ** 2)
        var += c.weight * e_var
    return float(mu), float(var)
