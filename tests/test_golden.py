"""Golden digests: six short runs must reproduce the bytes in
golden_digests.json.

Each run is a tools/byte_identity.py shape at its first seed and budget (12
updates, batch 32) on the tiny_teacher_ckpt network. The table holds the
SHA-256 of its metrics.csv, of its observer_probe.csv when it writes one, and
of the final generator as load_params reads it (config and flat buffer, not
the file bytes, so a container format change leaves the digests alone).

The digests hold for one numpy/BLAS build on one kind of CPU, which the table
records; on another build the test skips and names both. A change that alters
the numerics on purpose regenerates the table with

    PYTHONPATH=src python3 tests/test_golden.py

and says so in CHANGES.md.
"""

import ctypes
import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dmdlab import load_params
from dmdlab.lab.config import run_config_from_dict
from dmdlab.lab.presets import BASE_RUN
from dmdlab.lab.runner import run_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from byte_identity import BUDGET, SEEDS, SHAPES  # noqa: E402

TABLE = Path(__file__).with_name("golden_digests.json")
GOLDEN = ("full_dmd_coupled",       # coupled FULL_DMD with the normalizer
          "hybrid_4step",           # DECOUPLED_HYBRID, 4 steps
          "ca_gan",                 # CA_ONLY + GAN
          "full_ca_meanvar_2step",  # CA_ONLY + MEANVAR_KL
          "constrained_dm_2step",   # DM_ONLY, the fake trained (ttur 5)
          "ca_observer")            # the observer probe


def _blas_core():
    """The CPU kernel set OpenBLAS chose at load time, or None if the
    library cannot be asked."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (AttributeError, OSError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version')}",
            "machine": platform.machine(), "blas_core": _blas_core()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(name: str, teacher: Path, out: Path) -> dict:
    cfg = run_config_from_dict({**BASE_RUN, **BUDGET, **SHAPES[name],
                                "seed": SEEDS[0], "teacher": str(teacher)})
    art = run_config(cfg, out)
    digests = {"metrics.csv": _sha(art.metrics_path.read_bytes())}
    if art.probe_path.exists():
        digests["observer_probe.csv"] = _sha(art.probe_path.read_bytes())
    gen = load_params(art.checkpoint("generator"))
    config = json.dumps(dataclasses.asdict(gen.config), sort_keys=True)
    digests["generator"] = _sha(config.encode() + gen.flat.tobytes())
    return digests


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_digests(name, tiny_teacher_ckpt, tmp_path, monkeypatch):
    monkeypatch.delenv("LAB_SEED", raising=False)  # would override the seed
    table = json.loads(TABLE.read_text())
    if table["build"] != build():
        pytest.skip(f"not comparable: the table was written on "
                    f"{table['build']}, this is {build()}")
    assert run_digests(name, tiny_teacher_ckpt, tmp_path / name) == \
        table["digests"][name]


def main() -> None:
    """Rewrite golden_digests.json from this tree on this build."""
    from conftest import save_tiny_teacher
    with tempfile.TemporaryDirectory() as tmp:
        teacher = save_tiny_teacher(Path(tmp) / "teacher.ckpt")
        digests = {name: run_digests(name, teacher, Path(tmp) / name)
                   for name in GOLDEN}
    TABLE.write_text(json.dumps({"build": build(), "digests": digests},
                                indent=2) + "\n")
    print(f"wrote {TABLE}")


if __name__ == "__main__":
    main()
