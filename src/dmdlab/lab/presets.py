"""Named experiment presets.

Each preset expands to a list of runs sharing one teacher, a seed and an
output root, plus a summary.csv comparing final metrics across sweep points
(rows in sweep order).

    decompose          full objective vs engine-only vs regularizer-only
    regularizers       engine with different stabilizers (none / DM / moment
                       KL / GAN)
    tau-probe          engine-only single-step runs with the renoising range
                       expanding from the noisy end, plus the clean-only
                       collapse case
    observer           engine-only with a non-interfering tracking fake model
                       and a drift-alignment probe table
    schedule-ablation  four-step runs under the four schedule policies
"""

import csv
import json
from pathlib import Path

from ..distill import NonFiniteError, SchedulePolicy
from .config import (ConfigError, check_outputs, resolve_data,
                     run_config_from_dict)
from .runner import RunArtifacts, _eval_reference, run_config, teacher_path

BASE_RUN = {
    "mode": "FULL_DMD",
    "schedule_policy": "COUPLED_SHARED",
    "alpha": 1.4,
    "lambda": 1.0,
    "n_steps": 1,
    "ttur_ratio": 5,
    "regularizer": "NONE",
    "w_gan": 5e-2,
    "normalizer_on": True,
    "seed": 0,
    "iterations": 2500,
    "batch": 128,
    "lr_fake": 6e-4,
    "w_meanvar": 20.0,
}

TAU_PROBE_RANGES = [(0.0, 0.05), (0.0, 0.25), (0.0, 0.5), (0.0, 1.0),
                    (0.7, 1.0)]

# name -> (budget defaults, [(run name, member keys)]); a member runs
# BASE_RUN, then the defaults, then the user overrides, then its own keys;
# run_preset refuses an override of a member key, which would do nothing.
# Budgets are sized to the dynamics of gmm8 (the engine-vs-matching
# equivalence window spans roughly the first couple hundred updates) and to
# the single-core wall-clock gates on the ablation presets.
PRESETS = {
    "decompose": ({"iterations": 600, "eval_every": 50}, [
        (mode.lower(), {"mode": mode})
        for mode in ("FULL_DMD", "CA_ONLY", "DM_ONLY")]),
    "regularizers": ({}, [
        ("ca_none", {"mode": "CA_ONLY", "regularizer": "NONE"}),
        ("ca_dm", {"mode": "FULL_DMD", "regularizer": "NONE"}),
        ("ca_meanvar_kl", {"mode": "CA_ONLY", "regularizer": "MEANVAR_KL"}),
        ("ca_gan", {"mode": "CA_ONLY", "regularizer": "GAN"}),
    ]),
    "tau-probe": ({"iterations": 800}, [
        (f"tau_{lo:g}_{hi:g}".replace(".", "p"),
         {"mode": "CA_ONLY", "n_steps": 1, "tau_ca_range": [lo, hi],
          "tau_dm_range": [lo, hi]})
        for lo, hi in TAU_PROBE_RANGES]),
    "observer": ({"iterations": 800}, [
        ("observer", {"mode": "CA_ONLY", "observer_mode": True})]),
    "schedule-ablation": ({}, [
        (policy.value.lower(), {"n_steps": 4, "schedule_policy": policy.value})
        for policy in SchedulePolicy]),
}

PRESET_NAMES = sorted(PRESETS)


def _final_row(metrics_path: Path) -> dict:
    with open(metrics_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows[-1] if rows else {}


def run_preset(name: str, out_root, overrides: dict) -> list:
    """Run every sweep point of the named preset; returns RunArtifacts list
    and writes summary.csv in the output root."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    out_root = Path(out_root)
    defaults, members = PRESETS[name]
    base = {**BASE_RUN, **defaults, **overrides}
    fixed = {"out_dir"}.union(*(keys for _, keys in members))
    for key in overrides:
        if key in fixed:  # each member run sets it itself
            raise ConfigError(key, f"preset {name!r} sets it for each member "
                              "run (out_dir as <--out>/<run name>)")
    # every member is checked before the shared teacher is trained: its
    # config, its evaluation reference and its run directory
    cfgs = [run_config_from_dict({**base, **keys}) for _, keys in members]
    spec = resolve_data(cfgs[0]["data"])  # no member sets its own data
    for (run_name, _), cfg in zip(members, cfgs):
        _eval_reference(cfg, spec)
        RunArtifacts(out_root / run_name).check("--out", cfg)
    dump = RunArtifacts(out_root).dump_path
    check_outputs([("--out", path, False) for path in (
        out_root / "summary.csv", out_root / "preset.json", dump)])
    out_root.mkdir(parents=True, exist_ok=True)
    base["seed"] = cfgs[0]["seed"]  # the members' seed, LAB_SEED included
    base["teacher"] = str(teacher_path(cfgs[0], spec, out_root / "teacher.ckpt",
                                       dump))

    artifacts = []
    summary_rows = []
    for (run_name, _), cfg in zip(members, cfgs):
        run_dir = out_root / run_name
        aborted = False
        try:
            art = run_config({**cfg, "teacher": base["teacher"]}, run_dir)
        except NonFiniteError:
            # a collapsed run (engine-only training diverges by design) still
            # contributes its trajectory up to the failure point
            aborted = True
            art = RunArtifacts(run_dir)
        artifacts.append(art)
        final = _final_row(art.metrics_path)
        summary_rows.append({
            "run": run_name,
            "iterations": final.get("iteration", ""),
            "sw2": final.get("sw2", ""),
            "mode_coverage": final.get("mode_coverage", ""),
            "mean_of_vars": final.get("mean_of_vars", ""),
            "loss_proxy": final.get("loss_proxy", ""),
            "aborted": str(aborted).lower(),
        })
    with open(out_root / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()))
        writer.writeheader()
        for row in summary_rows:
            writer.writerow(row)
    (out_root / "preset.json").write_text(json.dumps(
        {"preset": name, "base": base}, indent=2, sort_keys=True) + "\n")
    return artifacts
