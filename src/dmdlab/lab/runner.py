"""Run a distillation config end to end and emit the artifact directory.

Layout of a run directory:
    config_snapshot.json   fully resolved config; re-running it reproduces
                           every emitted byte
    metrics.csv            one MetricRecord row per evaluation point
    samples/iter_*.csv     evaluation point clouds (x..., label)
    checkpoints/*.ckpt     final generator / fake (and discriminator)
    manifest.json          timestamps and durations (the only file allowed
                           to differ between identical runs)
    diagnostic_dump.json   written only when training aborts on a non-finite
                           value; holds the error's context and iteration,
                           and names the network whose pass or step failed
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
                       ScheduleConfig, generator_update, init_distill_state,
                       observer_probe, sample_generator)
from ..flow import TeacherConfig, train_teacher
from ..metrics import (CSV_COLUMNS, batch_sample_stats, mode_coverage,
                       sliced_wasserstein2)
from .config import (ConfigError, _check_out_dir, _check_out_file,
                     _check_teacher, build, load_run_config, resolve_data)

_REF_TAG = 0x5EED_0001
_EVAL_TAG = 0x5EED_0002


@dataclass
class RunArtifacts:
    """A run directory; every file's place in it is derived from dir."""

    dir: Path

    def __post_init__(self):
        self.config_path = self.dir / "config_snapshot.json"
        self.metrics_path = self.dir / "metrics.csv"
        self.checkpoint_dir = self.dir / "checkpoints"
        self.samples_dir = self.dir / "samples"
        self.manifest_path = self.dir / "manifest.json"

    def check(self, key: str) -> None:
        """Raise ConfigError under key, before anything is written, unless
        the run's deepest directories, and so every one above them, are
        directories or can be made."""
        for d in (self.samples_dir, self.checkpoint_dir):
            _check_out_dir(key, d)


def teacher_path(cfg: dict, spec: MixtureSpec, default: Path,
                 dump_dir: Path) -> Path:
    """The teacher checkpoint of a checked run config: the one it names, else
    one at default that fits the data, else the default TeacherConfig trained
    from its seed and saved at default; an abort dumps into dump_dir."""
    if cfg["teacher"] is not None:
        return Path(cfg["teacher"])
    if default.exists():
        _check_teacher(default, spec)
        return default
    default.parent.mkdir(parents=True, exist_ok=True)
    return _train_and_save(spec, TeacherConfig(), cfg["seed"], default,
                           dump_dir)


def _train_and_save(spec: MixtureSpec, config: TeacherConfig, seed: int,
                    out: Path, dump_dir: Path, log=None) -> Path:
    """Train a teacher from seed and save it at out, its loss log at log if
    given; a non-finite abort leaves its dump, naming the teacher, in
    dump_dir."""
    try:
        teacher = train_teacher(spec, config, np.random.default_rng(seed),
                                log_path=log)
    except NonFiniteError as err:
        raise _abort(err, dump_dir, teacher=err.params)
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
    _check_out_dir("--out", out_dir)
    files = {"out": out.resolve(), "log": log.resolve()}
    dirs = [path.parent for path in files.values()]
    for key, path in files.items():
        _check_out_file(key, path)
        if any(path == d or path in d.parents for d in dirs):
            raise ConfigError(key, f"{path} is also a directory to write into")
    for d in (out_dir, *dirs):
        d.mkdir(parents=True, exist_ok=True)
    return _train_and_save(spec, build(TeacherConfig, cfg), cfg["seed"], out,
                           out_dir, log)


def _abort(err: NonFiniteError, dump_dir: Path, **networks) -> NonFiniteError:
    """The error, naming the network in networks (name=params) that failed,
    once its diagnostic_dump.json is in dump_dir and dump_path names it."""
    for name, params in networks.items():
        if params is not None and params is err.params:
            err.context["network"] = name
    dump_path = dump_dir / "diagnostic_dump.json"
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


def run_config(cfg: dict, out_dir) -> RunArtifacts:
    spec = resolve_data(cfg["data"])
    ref_by_label = _eval_reference(cfg, spec)  # fails before any file exists
    art = RunArtifacts(Path(out_dir))
    teacher_file = teacher_path(cfg, spec, art.checkpoint_dir / "teacher.ckpt",
                                art.dir)
    art.samples_dir.mkdir(parents=True, exist_ok=True)
    art.checkpoint_dir.mkdir(exist_ok=True)
    teacher = load_params(teacher_file)

    snapshot = {**cfg, "teacher": str(teacher_file)}
    art.config_path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    dconfig = build(DistillConfig, cfg)
    schedule = build(ScheduleConfig, cfg)
    state = init_distill_state(teacher, dconfig, spec, seed=cfg["seed"])

    started = time.time()
    aborted = None
    with open(art.metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        try:
            for it in range(1, cfg["iterations"] + 1):
                record = generator_update(state, teacher, dconfig, schedule)
                if it % cfg["eval_every"] == 0 or it == cfg["iterations"]:
                    clouds = _eval_clouds(state, dconfig.grid, spec,
                                          cfg["seed"], it, cfg["eval_n"])
                    sw_rng = np.random.default_rng([cfg["seed"], it, 0x51])
                    record.sw2 = float(np.mean([
                        sliced_wasserstein2(cloud, ref, 128, sw_rng)
                        for cloud, ref in zip(clouds, ref_by_label)]))
                    record.mode_coverage = float(np.mean([
                        mode_coverage(cloud, spec, label, cfg["radius_mult"])
                        for label, cloud in enumerate(clouds)]))
                    means, variances = batch_sample_stats(np.concatenate(clouds))
                    record.mean_of_means = float(means.mean())
                    record.mean_of_vars = float(variances.mean())
                    writer.writerow(record.to_row())
                    fh.flush()
                    with open(art.samples_dir / f"iter_{it:06d}.csv", "w",
                              newline="") as sf:
                        sw = csv.writer(sf)
                        sw.writerow([f"x{d}" for d in range(spec.dim)] + ["label"])
                        # csv writes a float as its repr(), which round-trips
                        sw.writerows(point + [label]
                                     for label, cloud in enumerate(clouds)
                                     for point in cloud.tolist())
        except NonFiniteError as err:
            err.context.setdefault("iteration", it)
            aborted = _abort(err, art.dir, generator=state.generator,
                             teacher=teacher, fake=state.fake, disc=state.disc)

    save_params(state.generator, art.checkpoint_dir / "generator.ckpt")
    save_params(state.fake, art.checkpoint_dir / "fake.ckpt")
    if state.disc is not None:
        save_params(state.disc, art.checkpoint_dir / "disc.ckpt")

    if dconfig.observer_mode:
        _write_observer_probe(art.dir, state, teacher, spec, dconfig.grid,
                              cfg["seed"])

    art.manifest_path.write_text(json.dumps({
        "started_unix": started,
        "finished_unix": time.time(),
        "duration_seconds": time.time() - started,
        "aborted": bool(aborted),
    }, indent=2) + "\n")

    if aborted is not None:
        raise aborted
    return art


def _write_observer_probe(out_dir: Path, state: DistillState, teacher,
                          spec: MixtureSpec, grid, seed: int,
                          taus=(0.1, 0.3, 0.5, 0.7, 0.9)) -> None:
    """Per-label probe of the (unused) DM term against the measured drift of
    the generator's samples away from the data mean."""
    rows = []
    rng = np.random.default_rng([seed, 0x0B5E])
    for label in range(spec.label_count):
        cond = np.full(256, label)
        cloud = sample_generator(state.generator, grid, cond, rng)
        data_mean, _ = target_stats(spec, label)
        drift = cloud.mean(axis=0) - data_mean
        probe = observer_probe(state, teacher, cloud, taus, label,
                               artifact_dir=drift, rng=rng)
        for tau, mag, align in probe:
            rows.append((label, tau, mag, align,
                         float(np.linalg.norm(drift))))
    with open(out_dir / "observer_probe.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "tau", "dm_magnitude", "dm_dot_drift",
                         "drift_norm"])
        for row in rows:
            writer.writerow([row[0]] + [repr(float(v)) for v in row[1:]])


def run(config_path, out_dir=None) -> RunArtifacts:
    """Load a run config file and run it; the output directory defaults to
    the config's out_dir, else <config stem>_run next to the config file."""
    cfg = load_run_config(config_path)
    key = "out_dir" if out_dir is None else "--out"
    if out_dir is None:
        out_dir = cfg["out_dir"] or (Path(config_path).resolve().parent
                                     / (Path(config_path).stem + "_run"))
    RunArtifacts(Path(out_dir)).check(key)
    return run_config(cfg, out_dir)
