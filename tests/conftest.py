"""Shared fixtures. The trained gmm8 teacher is expensive, so it is built once
per session and cached on disk keyed by its exact configuration."""

import csv
import hashlib
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from dmdlab.checkpoint import VERSION, load_params, save_params
from dmdlab.data import gmm8
from dmdlab.flow import TeacherConfig, train_teacher
from dmdlab.net import NetConfig, init_params, slot_shapes

CACHE_DIR = Path(__file__).parent / ".cache"
CACHE_VERSION = 3  # bump when training numerics change (invalidates cache)
TEACHER_SEED = 1234
TEACHER_CONFIG = TeacherConfig(iterations=20_000, batch=256, lr=1e-3,
                               p_uncond=0.1)


def _teacher_key() -> str:
    blob = json.dumps({
        "version": CACHE_VERSION,
        "checkpoint": VERSION,  # a format change retrains the cached teacher
        "seed": TEACHER_SEED,
        "config": vars(TEACHER_CONFIG),
    }, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def checkpoint_bytes(fields, n_values, version=VERSION) -> bytes:
    """A checkpoint whose header holds version and the eight NetConfig fields,
    followed by n_values zero float64 values."""
    return (b"DMDL" + struct.pack("<I8I", version, *fields)
            + bytes(8 * n_values))


def v1_checkpoint_bytes(params) -> bytes:
    """params as version 1 wrote them: a per-slot shape table after a
    precision flag of 0, then the float64 data."""
    shapes = slot_shapes(params.config)
    table = [struct.pack(f"<I{len(s)}I", len(s), *s) for s in shapes]
    return b"".join([b"DMDL", struct.pack("<IBI", 1, 0, len(shapes)),
                     *table, params.flat.tobytes()])


def save_tiny_teacher(path: Path) -> Path:
    """An untrained gmm8-shaped network: run-contract and golden runs need a
    valid checkpoint, not a trained teacher."""
    params = init_params(NetConfig(dim=2, n_labels=4, hidden=16, n_hidden=2),
                         np.random.default_rng(0))
    save_params(params, path)
    return path


@pytest.fixture(scope="module")
def tiny_teacher_ckpt(tmp_path_factory):
    return save_tiny_teacher(tmp_path_factory.mktemp("teacher") / "teacher.ckpt")


@pytest.fixture(scope="session")
def teacher_bundle():
    """dict with spec, trained teacher params, training-log rows and wall time."""
    CACHE_DIR.mkdir(exist_ok=True)
    key = _teacher_key()
    ckpt = CACHE_DIR / f"teacher_{key}.ckpt"
    log = CACHE_DIR / f"teacher_{key}_log.csv"
    meta = CACHE_DIR / f"teacher_{key}_meta.json"
    spec = gmm8()
    if not (ckpt.exists() and log.exists() and meta.exists()):
        rng = np.random.default_rng(TEACHER_SEED)
        start = time.perf_counter()
        params = train_teacher(spec, TEACHER_CONFIG, rng, log_path=log)
        seconds = time.perf_counter() - start
        save_params(params, ckpt)
        meta.write_text(json.dumps({"seconds": seconds}))
    params = load_params(ckpt)
    with open(log, newline="") as fh:
        rows = [(int(r["iteration"]), float(r["loss"]))
                for r in csv.DictReader(fh)]
    seconds = json.loads(meta.read_text())["seconds"]
    return {"spec": spec, "params": params, "log": rows, "seconds": seconds,
            "ckpt_path": ckpt}
