"""Run a distillation config end to end and emit the artifact directory.

Layout of a run directory:
    config_snapshot.json   fully resolved config; re-running it reproduces
                           every emitted byte
    metrics.csv            one row per evaluation point: the update's
                           values and the evaluation clouds' (CSV_COLUMNS)
    samples/iter_*.csv     evaluation point clouds (x..., label)
    checkpoints/*.ckpt     final generator / fake (and discriminator)
    manifest.json          timestamps and durations (the only file allowed
                           to differ between identical runs)
    diagnostic_dump.json   written only when training aborts on a non-finite
                           value; holds the error's context and iteration,
                           and names the network whose pass or step failed
    observer_probe.csv     observer_mode only, for a run that did not abort:
                           per label and probed tau, the unused DM term
                           against the generator's drift
    plots/*.svg            written by `lab plot`
"""

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..checkpoint import load_params, save_params
from ..data import MixtureSpec, sample_dataset, target_stats
from ..distill import (DistillConfig, DistillState, NonFiniteError,
                       generator_update, init_distill_state, observer_probe,
                       sample_generator)
from ..flow import TeacherConfig, train_teacher
from ..metrics import (CSV_COLUMNS, batch_sample_stats, csv_row,
                       mode_coverage, sliced_wasserstein2)
from .config import (ConfigError, _check_teacher, build, check_outputs,
                     load_run_config, resolve_data)

_REF_TAG = 0x5EED_0001
_EVAL_TAG = 0x5EED_0002
_PROBE_TAUS = (0.1, 0.3, 0.5, 0.7, 0.9)  # observer_probe.csv's noise levels


def eval_iterations(cfg: dict) -> set:
    """The updates of a checked run config that an evaluation point follows:
    every eval_every-th and the last."""
    n, every = cfg["iterations"], cfg["eval_every"]
    return {*range(every, n + 1, every), n}


@dataclass
class RunArtifacts:
    """The only owner of a run directory's file names (and the dump's)."""

    dir: Path

    def __post_init__(self):
        self.config_path = self.dir / "config_snapshot.json"
        self.metrics_path = self.dir / "metrics.csv"
        self.checkpoint_dir = self.dir / "checkpoints"
        self.samples_dir = self.dir / "samples"
        self.manifest_path = self.dir / "manifest.json"
        self.dump_path = self.dir / "diagnostic_dump.json"
        self.probe_path = self.dir / "observer_probe.csv"
        self.plots_dir = self.dir / "plots"

    def checkpoint(self, name: str) -> Path:
        return self.checkpoint_dir / f"{name}.ckpt"

    def sample_path(self, it: int) -> Path:
        return self.samples_dir / f"iter_{it:06d}.csv"

    def sample_paths(self) -> list:
        """The evaluation point clouds written so far, in iteration order."""
        return sorted(self.samples_dir.glob("iter_*.csv"),
                      key=lambda p: (len(p.stem), p.stem))

    def check(self, key: str, cfg: dict) -> None:
        """Raise ConfigError under key, before anything is written, unless
        every path that the run of the checked config cfg writes can be
        written (a default teacher's checkpoint is teacher_path's)."""
        nets = ["generator", "fake"] + ["disc"] * (cfg["regularizer"] == "GAN")
        files = [self.config_path, self.metrics_path, self.manifest_path,
                 self.dump_path, *map(self.checkpoint, nets),
                 *map(self.sample_path, eval_iterations(cfg)),
                 *[self.probe_path] * cfg["observer_mode"]]
        check_outputs([(key, self.samples_dir, True),
                       (key, self.checkpoint_dir, True)]
                      + [(key, f, False) for f in files])


def teacher_path(cfg: dict, spec: MixtureSpec, default: Path,
                 dump_path: Path) -> Path:
    """The teacher checkpoint of a checked run config: the one it names, else
    one at default that fits the data, else the default TeacherConfig trained
    from its seed and saved at default; an abort dumps at dump_path."""
    if cfg["teacher"] is not None:
        return Path(cfg["teacher"])
    if default.exists():
        _check_teacher(default, spec)
        return default
    default.parent.mkdir(parents=True, exist_ok=True)
    return _train_and_save(spec, TeacherConfig(), cfg["seed"], default,
                           dump_path)


def _train_and_save(spec: MixtureSpec, config: TeacherConfig, seed: int,
                    out: Path, dump_path: Path, log=None) -> Path:
    """Train a teacher from seed and save it at out, its loss log at log if
    given; a non-finite abort leaves its dump, naming the teacher, at
    dump_path."""
    try:
        teacher = train_teacher(spec, config, np.random.default_rng(seed),
                                log_path=log)
    except NonFiniteError as err:
        raise _abort(err, dump_path, teacher=err.params)
    save_params(teacher, out)
    return out


def train_teacher_cli(cfg: dict, out_dir: Path) -> Path:
    """Train the configured teacher and save it at out, with its loss log at
    log (<out stem>_log.csv by default), both resolved under out_dir. Every
    output path is checked, and its directory made, before training; an
    abort leaves its dump in out_dir."""
    spec = resolve_data(cfg["data"])
    out = out_dir / cfg["out"]
    log = out_dir / (cfg["log"] or (Path(cfg["out"]).stem + "_log.csv"))
    dump = RunArtifacts(out_dir).dump_path
    check_outputs([("--out", out_dir, True), ("out", out, False),
                   ("log", log, False), ("--out", dump, False)])
    for d in (out_dir, out.parent, log.parent):
        d.mkdir(parents=True, exist_ok=True)
    return _train_and_save(spec, build(TeacherConfig, cfg), cfg["seed"], out,
                           dump, log)


def _abort(err: NonFiniteError, dump_path: Path, **networks) -> NonFiniteError:
    """The error, naming the first network in networks (name=params) that
    failed, once its dump is written at dump_path and its context names that
    path; run_config lists the teacher before the fake, which may be it."""
    for name, params in networks.items():
        if params is not None and params is err.params:
            err.context["network"] = name
            break
    dump_path.write_text(json.dumps({**err.context, "error": str(err)},
                                    indent=2, sort_keys=True) + "\n")
    err.context["dump_path"] = str(dump_path)
    return err


def _eval_clouds(state: DistillState, grid, spec: MixtureSpec, seed: int,
                 iteration: int, n: int) -> list:
    """One cloud per label from full few-step inference, on a per-iteration
    eval rng that is identical across runs sharing a seed."""
    rng = np.random.default_rng([seed, iteration, _EVAL_TAG])
    per = max(n // spec.label_count, 1)
    return [sample_generator(state.generator, grid, np.full(per, label), rng)
            for label in range(spec.label_count)]


def _eval_reference(cfg: dict, spec: MixtureSpec) -> list:
    """The evaluation reference of a checked run config, one cloud per label;
    a label the draw leaves empty is an error of eval_ref_n."""
    ref = sample_dataset(spec, cfg["eval_ref_n"],
                         np.random.default_rng([cfg["seed"], _REF_TAG]))
    clouds = [ref.points[ref.labels == label]
              for label in range(spec.label_count)]
    for label, cloud in enumerate(clouds):
        if len(cloud) == 0:
            raise ConfigError("eval_ref_n", f"{cfg['eval_ref_n']} reference "
                              f"points at seed {cfg['seed']} leave label "
                              f"{label} with none; raise eval_ref_n")
    return clouds


def run_config(cfg: dict, out_dir, key: str = "--out") -> RunArtifacts:
    """Run a checked config into out_dir, which errors name as key."""
    art = RunArtifacts(Path(out_dir))
    art.check(key, cfg)
    spec = resolve_data(cfg["data"])
    ref_by_label = _eval_reference(cfg, spec)  # fails before any file exists
    teacher_file = teacher_path(cfg, spec, art.checkpoint("teacher"),
                                art.dump_path)
    art.samples_dir.mkdir(parents=True, exist_ok=True)
    art.checkpoint_dir.mkdir(exist_ok=True)
    teacher = load_params(teacher_file)

    snapshot = {**cfg, "teacher": str(teacher_file)}
    art.config_path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    dconfig = build(DistillConfig, cfg)
    state = init_distill_state(teacher, dconfig, spec, seed=cfg["seed"])

    evals = eval_iterations(cfg)
    started = time.time()
    aborted = None
    with open(art.metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        try:
            for it in range(1, cfg["iterations"] + 1):
                record = generator_update(state, teacher, dconfig)
                if it in evals:
                    clouds = _eval_clouds(state, dconfig.grid, spec,
                                          cfg["seed"], it, cfg["eval_n"])
                    sw_rng = np.random.default_rng([cfg["seed"], it, 0x51])
                    record["sw2"] = float(np.mean([
                        sliced_wasserstein2(cloud, ref, 128, sw_rng)
                        for cloud, ref in zip(clouds, ref_by_label)]))
                    record["mode_coverage"] = float(np.mean([
                        mode_coverage(cloud, spec, label)
                        for label, cloud in enumerate(clouds)]))
                    means, variances = batch_sample_stats(np.concatenate(clouds))
                    record["mean_of_means"] = float(means.mean())
                    record["mean_of_vars"] = float(variances.mean())
                    writer.writerow(csv_row(record))
                    fh.flush()
                    with open(art.sample_path(it), "w", newline="") as sf:
                        sw = csv.writer(sf)
                        sw.writerow([f"x{d}" for d in range(spec.dim)] + ["label"])
                        # csv writes a float as its repr(), which round-trips
                        sw.writerows(point + [label]
                                     for label, cloud in enumerate(clouds)
                                     for point in cloud.tolist())
        except NonFiniteError as err:
            err.context.setdefault("iteration", it)
            aborted = _abort(err, art.dump_path, generator=state.generator,
                             teacher=teacher, fake=state.fake, disc=state.disc)

    save_params(state.generator, art.checkpoint("generator"))
    save_params(state.fake, art.checkpoint("fake"))
    if state.disc is not None:
        save_params(state.disc, art.checkpoint("disc"))

    if dconfig.observer_mode and aborted is None:
        _write_observer_probe(art.probe_path, state, teacher, spec,
                              dconfig.grid, cfg["seed"])

    art.manifest_path.write_text(json.dumps({
        "started_unix": started,
        "finished_unix": time.time(),
        "duration_seconds": time.time() - started,
        "aborted": bool(aborted),
    }, indent=2) + "\n")

    if aborted is not None:
        raise aborted
    return art


def _write_observer_probe(path: Path, state: DistillState, teacher,
                          spec: MixtureSpec, grid, seed: int) -> None:
    """Per-label probe of the (unused) DM term at each of _PROBE_TAUS against
    the measured drift of the generator's samples away from the data mean."""
    rows = []
    rng = np.random.default_rng([seed, 0x0B5E])
    for label in range(spec.label_count):
        cond = np.full(256, label)
        cloud = sample_generator(state.generator, grid, cond, rng)
        data_mean, _ = target_stats(spec, label)
        drift = cloud.mean(axis=0) - data_mean
        probe = observer_probe(state, teacher, cloud, _PROBE_TAUS, label,
                               artifact_dir=drift, rng=rng)
        for tau, mag, align in probe:
            rows.append((label, tau, mag, align,
                         float(np.linalg.norm(drift))))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "tau", "dm_magnitude", "dm_dot_drift",
                         "drift_norm"])
        for row in rows:
            writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])


def run(config_path, out_dir=None) -> RunArtifacts:
    """Load a run config file and run it; the output directory defaults to
    the config's out_dir, else <config stem>_run next to the config file."""
    cfg = load_run_config(config_path)
    if out_dir is not None:
        return run_config(cfg, out_dir)
    path = Path(config_path)
    return run_config(cfg, cfg["out_dir"] or path.resolve().with_name(
        path.stem + "_run"), "out_dir")
