"""Shared fixtures. The trained gmm8 teacher is expensive, so it is built once
per session and cached on disk keyed by its exact configuration."""

import csv
import hashlib
import json
import math
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from dmdlab.checkpoint import load_params, save_params
from dmdlab.data import gmm8
from dmdlab.flow import TeacherConfig, train_teacher

CACHE_DIR = Path(__file__).parent / ".cache"
CACHE_VERSION = 3  # bump when training numerics change (invalidates cache)
TEACHER_SEED = 1234
TEACHER_CONFIG = TeacherConfig(iterations=20_000, batch=256, lr=1e-3,
                               p_uncond=0.1, log_every=100)


def _teacher_key() -> str:
    blob = json.dumps({
        "version": CACHE_VERSION,
        "seed": TEACHER_SEED,
        "config": vars(TEACHER_CONFIG),
    }, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def checkpoint_bytes(shapes, version=1) -> bytes:
    """A float64 checkpoint with the given array table and zero data."""
    table = [struct.pack(f"<I{len(s)}I", len(s), *s) for s in shapes]
    return b"".join([b"DMDL", struct.pack("<IBI", version, 0, len(shapes)),
                     *table, bytes(8 * sum(math.prod(s) for s in shapes))])


def write_fp32_checkpoint(params, path) -> None:
    """Write params the way save_params once wrote float32 networks: the same
    array table, precision flag 1 and a float32 data section."""
    save_params(params, path)
    buf = path.read_bytes()
    table = buf[9:len(buf) - params.flat.nbytes]
    path.write_bytes(buf[:8] + b"\x01" + table
                     + params.flat.astype("<f4").tobytes())


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
