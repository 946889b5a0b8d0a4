"""Command-line entry point.

    lab train-teacher <cfg.json> [--out DIR]
    lab run <cfg.json> [--out DIR]
    lab preset <name> [--override k=v ...] [--out DIR]
    lab plot <run_dir>

Exit codes: 2 config/schema violation or unusable output path, lab plot's
plots/ and SVG files included (message names the key, run_dir for lab plot;
nothing is written), 3 non-finite training abort (diagnostic dump path
printed), 4 lab plot on a metrics.csv or last sample dump that cannot be
read, has no data rows, lacks a column it plots, holds a non-number, NaN
or infinity, or has a column whose axis range overflows (nothing is
written). LAB_SEED overrides the config seed.
"""

import argparse
import json
import sys
from pathlib import Path

from ..distill import NonFiniteError
from .config import ConfigError, load_teacher_config, unique_keys
from .plots import PlotDataError, plot_run
from .presets import PRESET_NAMES, run_preset
from .runner import run, train_teacher_cli


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError("<override>", f"expected k=v, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        return key, json.loads(raw)
    except ValueError:  # not JSON, or an integer too long to convert
        return key, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Few-step distillation lab on synthetic conditional mixtures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_teacher = sub.add_parser("train-teacher", help="train a teacher checkpoint")
    p_teacher.add_argument("config")
    p_teacher.add_argument("--out", default=".")

    p_run = sub.add_parser("run", help="run one distillation config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)

    p_preset = sub.add_parser("preset", help="run a named experiment preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--override", action="append", default=[],
                          metavar="K=V")

    p_plot = sub.add_parser("plot", help="emit SVG plots for a run directory")
    p_plot.add_argument("run_dir")

    args = parser.parse_args(argv)
    try:
        if args.command == "train-teacher":
            out = train_teacher_cli(load_teacher_config(args.config),
                                    Path(args.out))
            print(f"teacher checkpoint written to {out}")
        elif args.command == "run":
            print(f"run artifacts in {run(args.config, args.out).dir}")
        elif args.command == "preset":
            overrides = unique_keys(map(_parse_override, args.override))
            out_root = Path(args.out or f"runs/{args.name}")
            arts = run_preset(args.name, out_root, overrides)
            print(f"{len(arts)} runs in {out_root} (summary.csv written)")
        elif args.command == "plot":
            written = plot_run(args.run_dir)
            for path in written:
                print(path)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonFiniteError as err:
        print(f"error: training aborted on a non-finite value; "
              f"diagnostics at {err.context['dump_path']}", file=sys.stderr)
        return 3
    except PlotDataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
