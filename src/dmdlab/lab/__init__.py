"""Experiment runner: JSON configs, named presets, CSV/SVG artifacts."""

from .config import ConfigError, load_run_config
from .runner import RunArtifacts, run, run_config
from .presets import PRESET_NAMES, run_preset
from .plots import PlotDataError, plot_run

__all__ = [
    "ConfigError", "load_run_config",
    "RunArtifacts", "run", "run_config",
    "PRESET_NAMES", "run_preset",
    "PlotDataError", "plot_run",
]
