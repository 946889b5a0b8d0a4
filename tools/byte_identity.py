"""Write and compare the artifact trees that a behaviour-preserving change
to dmdlab must leave byte-identical.

    python3 tools/byte_identity.py write OUT [--src SRC]
    python3 tools/byte_identity.py compare A B

``write`` trains a 200-iteration gmm8 teacher with ``lab train-teacher``
(checkpoint and loss log), and a second one that keeps an EMA of its weights
at a fixed learning rate (EMA_TEACHER), for its files alone. It then runs
every shape in SHAPES at seeds 3 and 21 and every preset at a small budget on
the first teacher, and one run with no ``teacher`` key that finds a copy of
it already in its run directory, each into its own directory under OUT
(which must not exist yet). ``lab plot`` then draws the PLOTTED run, so its
``plots/*.svg`` are compared too. It imports dmdlab from SRC, by default the
src/ next to this directory, so one copy of the script can write the trees
of two checkouts:

    python3 tools/byte_identity.py write /tmp/old --src ../old-checkout/src
    python3 tools/byte_identity.py write /tmp/new
    python3 tools/byte_identity.py compare /tmp/old /tmp/new

``compare`` reads every file under either tree. It skips manifest.json,
which holds wall-clock times, and drops the teacher path, which names the
tree, from config_snapshot.json and preset.json before comparing them; every
other file must match byte for byte. For a differing JSON object it prints
the top-level keys that differ: ``-key`` only in A, ``+key`` only in B, and
``key`` in both with other values. It exits 0 when nothing differs, else 1.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

SEEDS = (3, 21)
BUDGET = {"iterations": 12, "batch": 32, "eval_every": 4, "eval_n": 64,
          "eval_ref_n": 256}
PRESET_BUDGET = {"iterations": 6, "batch": 16, "eval_every": 3}
# teacher config: the default TeacherConfig at a 200-iteration budget
TEACHER = {"iterations": 200, "batch": 256, "lr": 1e-3, "p_uncond": 0.1,
           "seed": 0}
# the only teacher training that exercises the EMA update, at a fixed
# learning rate: lr_final equal to lr
EMA_TEACHER = {**TEACHER, "ema_decay": 0.99, "lr_final": TEACHER["lr"],
               "out": "teacher_ema.ckpt"}

# run name -> keys laid over the presets' BASE_RUN (FULL_DMD, coupled,
# 1 step, alpha 1.4) and BUDGET
SHAPES = {
    "full_dmd_coupled": {},
    "hybrid_4step": {"n_steps": 4, "schedule_policy": "DECOUPLED_HYBRID"},
    "coupled_dm_range": {"tau_dm_range": [0.2, 0.7]},
    "hybrid_4step_ca_range": {"n_steps": 4,
                              "schedule_policy": "DECOUPLED_HYBRID",
                              "tau_ca_range": [0.1, 0.6]},
    "ca_gan": {"mode": "CA_ONLY", "regularizer": "GAN", "eval_every": 3},
    "full_ca_meanvar_2step": {"mode": "CA_ONLY", "n_steps": 2,
                              "schedule_policy": "DECOUPLED_FULL",
                              "regularizer": "MEANVAR_KL"},
    "dmd_meanvar_unnormalized": {"regularizer": "MEANVAR_KL",
                                 "normalizer_on": False},
    "theory_alpha3": {"mode": "THEORY_DMD", "alpha": 3.0,
                      "normalizer_on": False},
    "ca_observer": {"mode": "CA_ONLY", "observer_mode": True},
    # a fake that nothing trains is the teacher: the DM term and the probe
    # return zeros without reading it
    "dmd_ttur0": {"ttur_ratio": 0},
    "ca_observer_ttur0": {"mode": "CA_ONLY", "observer_mode": True,
                          "ttur_ratio": 0},
    # the DM term's fake is the teacher, and the mode leaves out the engine
    "dm_only_ttur0": {"mode": "DM_ONLY", "ttur_ratio": 0},
    "constrained_dm_2step": {"mode": "DM_ONLY", "n_steps": 2,
                             "schedule_policy": "DECOUPLED_CONSTRAINED"},
    # alpha 1: the engine term is zero without evaluating the teacher
    "full_alpha1": {"alpha": 1.0},
    "ca_alpha1_hybrid_4step": {"mode": "CA_ONLY", "alpha": 1.0, "n_steps": 4,
                               "schedule_policy": "DECOUPLED_HYBRID"},
    # a custom step grid, which no preset or default grid has
    "constrained_grid_3step": {"n_steps": 3, "step_grid": [0.0, 0.3, 0.9],
                               "schedule_policy": "DECOUPLED_CONSTRAINED"},
}

PLOTTED = "ca_gan_s3"  # a run with a discriminator and three eval points

SKIPPED = {"manifest.json"}
TEACHER_KEYED = {"config_snapshot.json", "preset.json"}


def write(out: Path) -> None:
    from dmdlab.distill import NonFiniteError
    from dmdlab.lab.cli import main as lab
    from dmdlab.lab.config import run_config_from_dict
    from dmdlab.lab.presets import BASE_RUN, PRESET_NAMES, run_preset
    from dmdlab.lab.runner import run_config

    out.mkdir(parents=True)
    for name, cfg in (("teacher", TEACHER), ("teacher_ema", EMA_TEACHER)):
        (out / f"{name}.json").write_text(json.dumps(cfg))
        if lab(["train-teacher", str(out / f"{name}.json"), "--out", str(out)]):
            raise SystemExit(f"lab train-teacher failed on {name}.json")
    teacher = str(out / "teacher.ckpt")
    for name, keys in SHAPES.items():
        for seed in SEEDS:
            cfg = run_config_from_dict({**BASE_RUN, **BUDGET, **keys,
                                        "seed": seed, "teacher": teacher})
            try:
                run_config(cfg, out / "shapes" / f"{name}_s{seed}")
            except NonFiniteError:
                pass  # the dump and the metrics so far are compared too
    if lab(["plot", str(out / "shapes" / PLOTTED)]):
        raise SystemExit("lab plot failed")
    for name in PRESET_NAMES:
        run_preset(name, out / "presets" / name,
                   {**PRESET_BUDGET, "teacher": teacher})
    default = out / "shapes" / "default_teacher"
    (default / "checkpoints").mkdir(parents=True)
    shutil.copyfile(teacher, default / "checkpoints" / "teacher.ckpt")
    run_config(run_config_from_dict({**BASE_RUN, **BUDGET, "seed": SEEDS[0]}),
               default)


def _comparable(path: Path) -> bytes:
    if path.name not in TEACHER_KEYED:
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("teacher", None)
    doc.get("base", {}).pop("teacher", None)
    return json.dumps(doc, sort_keys=True).encode()


def _differing_keys(a: Path, b: Path) -> str:
    """' (keys: ...)' naming the top-level keys in which two JSON objects
    differ, or '' when either file is not one."""
    try:
        docs = [json.loads(_comparable(p)) for p in (a, b)]
    except ValueError:
        return ""
    if not all(isinstance(doc, dict) for doc in docs):
        return ""
    da, db = docs
    keys = [("-" if k not in db else "+" if k not in da else "") + k
            for k in sorted(da.keys() | db.keys())
            if k not in da or k not in db or da[k] != db[k]]
    return f" (keys: {', '.join(keys)})"


def compare(a: Path, b: Path) -> int:
    files = sorted({p.relative_to(root) for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    differ, same, skipped = [], 0, 0
    for rel in files:
        if rel.name in SKIPPED:
            skipped += 1
        elif not ((a / rel).is_file() and (b / rel).is_file()):
            differ.append(f"{rel} (only in one tree)")
        elif _comparable(a / rel) != _comparable(b / rel):
            differ.append(f"{rel}{_differing_keys(a / rel, b / rel)}")
        else:
            same += 1
    for rel in differ:
        print(f"differs: {rel}")
    print(f"{same} identical, {len(differ)} different, {skipped} skipped "
          f"({', '.join(sorted(SKIPPED))})")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="write the artifact tree")
    p_write.add_argument("out", type=Path)
    p_write.add_argument("--src", type=Path,
                         default=Path(__file__).resolve().parent.parent / "src")
    p_compare = sub.add_parser("compare", help="compare two artifact trees")
    p_compare.add_argument("a", type=Path)
    p_compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    # the lab is single-core; pin BLAS before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LAB_SEED", None)  # would override every seed below
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import dmdlab
    if not Path(dmdlab.__file__).resolve().is_relative_to(src):
        parser.error(f"dmdlab resolved to {dmdlab.__file__}, not {src}")
    write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
