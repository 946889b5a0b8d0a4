"""Static SVG emission for a finished run directory."""

import csv
from pathlib import Path

import numpy as np

from .config import check_outputs
from .runner import RunArtifacts
from .svgplot import data_limits, line_chart, scatter


class PlotDataError(ValueError):
    """metrics.csv or the last sample dump cannot be read, has no data rows,
    lacks a column that a plot reads, holds a field that is not a number,
    or that is NaN or infinite, or has a column whose axis range (its
    spread plus the plot's margin) overflows the float range."""


def _read_columns(path: Path) -> dict:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cols = {k: np.array([float(r[k]) for r in rows])
                for k in (rows[0] if rows else ())}
    except (OSError, ValueError, TypeError, csv.Error) as e:
        # missing, a directory, not text, or a field that is not a number
        # (a short row reads as None)
        raise PlotDataError(f"{path}: {e}")
    if not rows:
        raise PlotDataError(f"{path} has no data rows")
    for column, values in cols.items():
        if not np.isfinite(values).all():
            raise PlotDataError(f"{path}: column {column!r} holds a value "
                                f"that is NaN or infinite")
        lo, hi = data_limits([values])  # the widest axis a plot gives it
        if not np.isfinite(hi - lo):
            raise PlotDataError(f"{path}: column {column!r} spans more than "
                                f"the float range")
    return cols


def _require(path: Path, cols: dict, columns) -> None:
    for column in columns:
        if column not in cols:
            raise PlotDataError(f"{path} has no {column!r} column")


CHARTS = {  # file name -> (title, y label, metric columns)
    "sw2.svg": ("Sliced Wasserstein-2 to held-out data", "sw2", ["sw2"]),
    "variance.svg": ("Mean per-sample variance of generated clouds",
                     "mean_of_vars", ["mean_of_vars"]),
    "coverage.svg": ("Mode coverage", "mode_coverage", ["mode_coverage"]),
    "losses.svg": ("Training losses", "loss",
                   ["loss_proxy", "loss_fake", "loss_reg"]),
}


def plot_run(run_dir) -> list:
    """Emit line charts for the metric trajectories and a scatter of the last
    sample dump. Returns the written paths; raises PlotDataError when an
    input cannot be plotted, and ConfigError under run_dir when an output
    path is of the wrong kind, in both cases before it writes anything."""
    art = RunArtifacts(Path(run_dir))
    cols = _read_columns(art.metrics_path)
    _require(art.metrics_path, cols, ["iteration"] + [
        c for _, _, series in CHARTS.values() for c in series])
    names = list(CHARTS)
    dumps = art.sample_paths()
    if dumps:
        cloud = _read_columns(dumps[-1])
        dims = [k for k in cloud if k.startswith("x")]
        if len(dims) >= 2:
            _require(dumps[-1], cloud, ["label"])
            names.append("samples.svg")
    check_outputs([("run_dir", art.plots_dir, True)] + [
        ("run_dir", art.plots_dir / name, False) for name in names])
    art.plots_dir.mkdir(exist_ok=True)
    for name, (title, ylabel, series) in CHARTS.items():
        line_chart(art.plots_dir / name, title, "iteration", ylabel,
                   [(c, cols["iteration"], cols[c]) for c in series])
    if "samples.svg" in names:
        scatter(art.plots_dir / "samples.svg",
                f"Generated samples ({dumps[-1].stem})",
                np.column_stack([cloud[d] for d in dims[:2]]),
                cloud["label"].astype(int))
    return [art.plots_dir / name for name in names]
