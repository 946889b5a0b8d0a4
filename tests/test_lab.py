import ast
import contextlib
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import dmdlab
from dmdlab import NetConfig, init_params, load_params, save_params
from dmdlab.data import Component, MixtureSpec, gmm8
from dmdlab.distill import DistillConfig, NonFiniteError
from dmdlab.flow import TeacherConfig
from dmdlab.lab.cli import main as cli_main
from dmdlab.lab.config import (FIELD_KEYS, REQUIRED, RUN_KEYS, TEACHER_KEYS,
                               ConfigError, load_run_config,
                               run_config_from_dict, teacher_config_from_dict)
from dmdlab.lab.plots import PlotDataError, plot_run
from dmdlab.lab.presets import TAU_PROBE_RANGES, run_preset
from dmdlab.lab.runner import RunArtifacts, _abort, run_config
from dmdlab.metrics import CSV_COLUMNS, batch_sample_stats

from conftest import checkpoint_bytes, v1_checkpoint_bytes


def small_cfg(teacher, **over):
    cfg = {
        "mode": "FULL_DMD", "schedule_policy": "COUPLED_SHARED", "alpha": 4.0,
        "lambda": 1.0, "n_steps": 1, "ttur_ratio": 2, "regularizer": "NONE",
        "w_gan": 0.01, "normalizer_on": True, "seed": 11, "iterations": 8,
        "batch": 12, "eval_every": 4, "eval_n": 16, "eval_ref_n": 64,
        "teacher": str(teacher),
    }
    cfg.update(over)
    return cfg


# a network that fits gmm8, and its checkpoint header fields
TINY_NET = NetConfig(dim=2, n_labels=4, hidden=8, n_hidden=1)
TINY_FIELDS = dataclasses.astuple(TINY_NET)
TINY_SIZE = init_params(TINY_NET, np.random.default_rng(0)).flat.size

TEACHER_CFG = {"iterations": 40, "batch": 16, "lr": 1e-3, "p_uncond": 0.1,
               "seed": 5, "out": "t.ckpt"}


class TestConfigValidation:
    def test_missing_key_names_it(self, tmp_path, tiny_teacher_ckpt):
        raw = small_cfg(tiny_teacher_ckpt)
        del raw["alpha"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert err.value.key == "alpha"
        assert "alpha" in str(err.value)

    def test_cli_exit_2_on_missing_key(self, tmp_path, tiny_teacher_ckpt, capsys):
        raw = small_cfg(tiny_teacher_ckpt)
        del raw["alpha"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code = cli_main(["run", str(path)])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tiny_teacher_ckpt):
        # retired keys: backward simulation always draws fresh noise,
        # MEANVAR_KL always targets the data's moments, and mode coverage
        # always counts a hit within metrics.RADIUS_MULT sigmas
        for key in ("bogus", "backward_sim_fresh_noise", "meanvar_mu_target",
                    "meanvar_var_target", "radius_mult"):
            with pytest.raises(ConfigError) as err:
                run_config_from_dict(small_cfg(tiny_teacher_ckpt, **{key: True}))
            assert err.value.key == key

    def test_bad_enum_rejected(self, tiny_teacher_ckpt):
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(small_cfg(tiny_teacher_ckpt, mode="WAT"))
        assert err.value.key == "mode"

    def test_bad_range_rejected(self, tiny_teacher_ckpt):
        with pytest.raises(ConfigError):
            run_config_from_dict(small_cfg(tiny_teacher_ckpt,
                                           tau_ca_range=[0.9, 0.1]))

    def test_lab_seed_env_override(self, tiny_teacher_ckpt, monkeypatch):
        monkeypatch.setenv("LAB_SEED", "777")
        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt))
        assert cfg["seed"] == 777

    def test_lab_seed_not_an_integer_exit_2(self, tmp_path, tiny_teacher_ckpt,
                                            monkeypatch, capsys):
        monkeypatch.setenv("LAB_SEED", "abc")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(tiny_teacher_ckpt)))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "config key 'seed': LAB_SEED must be an integer" in (
            capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    def test_teacher_config_missing_key(self):
        with pytest.raises(ConfigError) as err:
            teacher_config_from_dict({"iterations": 10})
        assert err.value.key in ("batch", "lr", "p_uncond", "seed")


class TestRunner:
    def test_artifact_contract(self, tmp_path, tiny_teacher_ckpt):
        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt))
        art = run_config(cfg, tmp_path / "run")
        assert art.config_path.exists()
        assert art.metrics_path.exists()
        assert (art.checkpoint_dir / "generator.ckpt").exists()
        assert (art.checkpoint_dir / "fake.ckpt").exists()
        assert art.manifest_path.exists()
        dumps = list(art.samples_dir.glob("iter_*.csv"))
        assert len(dumps) == 2  # iterations 8, eval_every 4
        with open(art.metrics_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["iteration"]) for r in rows] == [4, 8]
        for row in rows:
            for key, value in row.items():
                assert np.isfinite(float(value)), (key, value)

    def test_rerun_byte_identical_metrics(self, tmp_path, tiny_teacher_ckpt):
        cfg_dict = small_cfg(tiny_teacher_ckpt)
        a = run_config(run_config_from_dict(cfg_dict), tmp_path / "a")
        b = run_config(run_config_from_dict(cfg_dict), tmp_path / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        for dump_a, dump_b in zip(sorted(a.samples_dir.iterdir()),
                                  sorted(b.samples_dir.iterdir())):
            assert dump_a.read_bytes() == dump_b.read_bytes()

    def test_snapshot_round_trip(self, tmp_path, tiny_teacher_ckpt):
        cfg_dict = small_cfg(tiny_teacher_ckpt)
        a = run_config(run_config_from_dict(cfg_dict), tmp_path / "a")
        snapshot = json.loads(a.config_path.read_text())
        b = run_config(run_config_from_dict(snapshot), tmp_path / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()

    def test_row_statistics_are_the_sample_cloud_statistics(
            self, tmp_path, tiny_teacher_ckpt):
        # the distribution-level columns come from the evaluation cloud
        # written next to the row, not from the last training batch
        art = run_config(run_config_from_dict(small_cfg(tiny_teacher_ckpt)),
                         tmp_path / "run")
        with open(art.metrics_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            path = art.samples_dir / f"iter_{int(row['iteration']):06d}.csv"
            with open(path, newline="") as fh:
                cloud = np.array([[float(v) for v in line[:-1]]
                                  for line in list(csv.reader(fh))[1:]])
            means, variances = batch_sample_stats(cloud)
            assert float(row["mean_of_means"]) == float(means.mean())
            assert float(row["mean_of_vars"]) == float(variances.mean())

    def test_custom_data_spec_path(self, tmp_path, tiny_teacher_ckpt):
        from dmdlab.data import gmm8

        spec_path = tmp_path / "mixture.json"
        gmm8().save(spec_path)
        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt,
                                             data=str(spec_path)))
        art = run_config(cfg, tmp_path / "run")
        assert art.metrics_path.exists()

    def test_gan_run_writes_disc_checkpoint(self, tmp_path, tiny_teacher_ckpt):
        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt,
                                             mode="CA_ONLY",
                                             regularizer="GAN"))
        art = run_config(cfg, tmp_path / "run")
        assert (art.checkpoint_dir / "disc.ckpt").exists()

    def test_nonfinite_abort_exit_3(self, tmp_path, tiny_teacher_ckpt,
                                    monkeypatch, capsys):
        import dmdlab.lab.runner as runner_mod

        def explode(*args, **kwargs):
            raise NonFiniteError("boom", context={"iteration": 1})

        monkeypatch.setattr(runner_mod, "generator_update", explode)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(tiny_teacher_ckpt)))
        code = cli_main(["run", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        assert (tmp_path / "run" / "diagnostic_dump.json").exists()
        assert "diagnostic" in capsys.readouterr().err

    def test_nonfinite_teacher_exit_3(self, tmp_path, capsys):
        params = init_params(NetConfig(dim=2, n_labels=4, hidden=16,
                                       n_hidden=2), np.random.default_rng(0))
        params.weights[0][0, 0] = np.inf
        teacher = tmp_path / "inf.ckpt"
        save_params(params, teacher)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(teacher)))
        with np.errstate(invalid="ignore"):
            code = cli_main(["run", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        dump = json.loads((tmp_path / "run" / "diagnostic_dump.json")
                          .read_text())
        assert dump["iteration"] == 1
        assert "non-finite" in dump["error"]
        assert "diagnostic" in capsys.readouterr().err

    def test_observer_abort_writes_no_probe(self, tmp_path, capsys):
        # the probe samples the generator, which starts as a copy of the
        # non-finite teacher, so an aborted run must not draw it
        params = init_params(NetConfig(dim=2, n_labels=4, hidden=16,
                                       n_hidden=2), np.random.default_rng(0))
        params.weights[0][0, 0] = np.inf
        teacher = tmp_path / "inf.ckpt"
        save_params(params, teacher)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(teacher, mode="CA_ONLY",
                                             observer_mode=True)))
        run_dir = tmp_path / "run"
        with np.errstate(invalid="ignore"):
            code = cli_main(["run", str(path), "--out", str(run_dir)])
        assert code == 3
        assert str(run_dir / "diagnostic_dump.json") in capsys.readouterr().err
        assert json.loads((run_dir / "manifest.json").read_text())["aborted"]
        assert not (run_dir / "observer_probe.csv").exists()

    def test_nonfinite_metric_exit_3(self, tmp_path, tiny_teacher_ckpt,
                                     capsys):
        # the generator stays finite but its samples overflow the sw2 metric
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(
            tiny_teacher_ckpt, mode="CA_ONLY", lr_gen=1e40)))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["run", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        dump = json.loads((tmp_path / "run" / "diagnostic_dump.json")
                          .read_text())
        assert dump["iteration"] == 4
        assert dump["field"] == "sw2"
        assert "diagnostic" in capsys.readouterr().err

    @pytest.mark.parametrize("over,network,iteration", [
        ({"lambda": 1e200}, "generator", 1),
        ({"lr_fake": 1e40}, "fake", 1),
        ({"mode": "CA_ONLY", "regularizer": "GAN", "lr_fake": 1e40}, "disc", 2),
    ])
    def test_adam_dump_names_network_and_slot(self, tmp_path,
                                              tiny_teacher_ckpt, capsys,
                                              over, network, iteration):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(tiny_teacher_ckpt, **over)))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli_main(["run", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        dump = json.loads((tmp_path / "run" / "diagnostic_dump.json")
                          .read_text())
        assert dump == {"error": "non-finite gradients", "network": network,
                        "slot": "w0", "iteration": iteration}

    def test_internal_key_error_propagates(self, tmp_path, tiny_teacher_ckpt,
                                           monkeypatch):
        # only config problems map to exit 2; a bug inside a run is not one
        import dmdlab.lab.runner as runner_mod

        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(runner_mod, "generator_update", broken)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(tiny_teacher_ckpt)))
        with pytest.raises(KeyError, match="internal"):
            cli_main(["run", str(path), "--out", str(tmp_path / "run")])

    def test_update_extra_keys_leave_metrics_csv_unchanged(
            self, tmp_path, tiny_teacher_ckpt, monkeypatch):
        # values an update returns beyond CSV_COLUMNS never reach metrics.csv
        import dmdlab.lab.runner as runner_mod

        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt))
        plain = run_config(cfg, tmp_path / "plain").metrics_path.read_bytes()
        update = runner_mod.generator_update
        monkeypatch.setattr(runner_mod, "generator_update",
                            lambda *args: {**update(*args), "norm_ca": np.nan,
                                           "note": "not a column"})
        extra = run_config(cfg, tmp_path / "extra").metrics_path.read_bytes()
        assert extra == plain
        assert plain.count(b"\n") == 3  # header and two evaluation rows


class TestPresets:
    def preset_overrides(self, teacher):
        return {"iterations": 6, "batch": 8, "eval_every": 3, "eval_n": 16,
                "eval_ref_n": 64, "teacher": str(teacher)}

    def test_schedule_ablation_cardinality(self, tmp_path, tiny_teacher_ckpt):
        arts = run_preset("schedule-ablation", tmp_path / "sa",
                          self.preset_overrides(tiny_teacher_ckpt))
        assert len(arts) == 4
        with open(tmp_path / "sa" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["run"] for r in rows] == [
            "coupled_shared", "decoupled_full", "decoupled_constrained",
            "decoupled_hybrid"]

    def test_decompose_cardinality(self, tmp_path, tiny_teacher_ckpt):
        arts = run_preset("decompose", tmp_path / "dc",
                          self.preset_overrides(tiny_teacher_ckpt))
        assert len(arts) == 3
        names = {a.dir.name for a in arts}
        assert names == {"full_dmd", "ca_only", "dm_only"}

    def test_regularizers_cardinality(self, tmp_path, tiny_teacher_ckpt):
        arts = run_preset("regularizers", tmp_path / "rg",
                          self.preset_overrides(tiny_teacher_ckpt))
        assert len(arts) == 4

    def test_tau_probe_ranges_respected(self, tmp_path, tiny_teacher_ckpt):
        arts = run_preset("tau-probe", tmp_path / "tp",
                          self.preset_overrides(tiny_teacher_ckpt))
        assert len(arts) == len(TAU_PROBE_RANGES)
        for art, (lo, hi) in zip(arts, TAU_PROBE_RANGES):
            with open(art.metrics_path, newline="") as fh:
                for row in csv.DictReader(fh):
                    assert lo <= float(row["tau_ca"]) <= hi

    def test_observer_probe_table(self, tmp_path, tiny_teacher_ckpt):
        arts = run_preset("observer", tmp_path / "ob",
                          self.preset_overrides(tiny_teacher_ckpt))
        assert len(arts) == 1
        probe = arts[0].dir / "observer_probe.csv"
        assert probe.exists()
        with open(probe, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 5  # labels x probed taus

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(KeyError):
            run_preset("nope", tmp_path / "x", {})


class TestPlots:
    def test_plot_outputs_and_determinism(self, tmp_path, tiny_teacher_ckpt):
        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt))
        art = run_config(cfg, tmp_path / "run")
        written1 = plot_run(art.dir)
        blobs1 = {p.name: p.read_bytes() for p in written1}
        written2 = plot_run(art.dir)
        blobs2 = {p.name: p.read_bytes() for p in written2}
        assert blobs1 == blobs2
        assert {"sw2.svg", "variance.svg", "coverage.svg", "losses.svg",
                "samples.svg"} <= set(blobs1)

    def test_variance_svg_marker_count(self, tmp_path, tiny_teacher_ckpt):
        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt,
                                             iterations=12, eval_every=3))
        art = run_config(cfg, tmp_path / "run")
        with open(art.metrics_path, newline="") as fh:
            n_rows = len(list(csv.DictReader(fh)))
        plot_run(art.dir)
        svg = (art.dir / "plots" / "variance.svg").read_text()
        assert svg.count('class="marker"') == n_rows

    def test_empty_metrics_exit_4(self, tmp_path, capsys):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            "iteration,sw2,mean_of_means,mean_of_vars,mode_coverage,"
            "loss_proxy,loss_fake,loss_reg,tau_ca,tau_dm,t\n")
        with pytest.raises(PlotDataError):
            plot_run(run_dir)
        code = cli_main(["plot", str(run_dir)])
        assert code == 4
        assert not (run_dir / "plots" / "sw2.svg").exists()

    @pytest.mark.parametrize("spoil,code", [
        ("plots", 2), ("plots/samples.svg", 2),  # an output of the wrong kind
        ("metrics_dir", 4), ("metrics_text", 4), ("samples_header", 4),
    ])
    def test_nothing_written_on_error(self, tmp_path, tiny_teacher_ckpt,
                                      capsys, spoil, code):
        run_dir = tmp_path / "run"
        run_config(run_config_from_dict(small_cfg(tiny_teacher_ckpt)), run_dir)
        metrics = run_dir / "metrics.csv"
        if spoil == "plots":
            (run_dir / "plots").write_text("")
        elif spoil == "plots/samples.svg":
            (run_dir / "plots" / "samples.svg").mkdir(parents=True)
        elif spoil == "metrics_dir":
            metrics.unlink()
            metrics.mkdir()
        elif spoil == "metrics_text":
            text = metrics.read_text().splitlines()
            text[-1] = "x" + text[-1]
            metrics.write_text("\n".join(text) + "\n")
        else:
            last = sorted((run_dir / "samples").glob("iter_*.csv"))[-1]
            last.write_text(last.read_text().splitlines()[0] + "\n")
        before = tree(tmp_path)
        assert cli_main(["plot", str(run_dir)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 4 or "config key 'run_dir'" in err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("column", ["iteration", "sw2", "loss_reg",
                                        "label"])
    def test_missing_column_exit_4(self, tmp_path, tiny_teacher_ckpt, capsys,
                                   column):
        run_dir = tmp_path / "run"
        run_config(run_config_from_dict(small_cfg(tiny_teacher_ckpt)), run_dir)
        path = (sorted((run_dir / "samples").glob("iter_*.csv"))[-1]
                if column == "label" else run_dir / "metrics.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, [k for k in rows[0] if k != column])
            writer.writeheader()
            writer.writerows({k: v for k, v in row.items() if k != column}
                             for row in rows)
        before = tree(tmp_path)
        assert cli_main(["plot", str(run_dir)]) == 4
        err = capsys.readouterr().err
        assert f"{path} has no {column!r} column" in err
        assert tree(tmp_path) == before

    @staticmethod
    def write_metrics(run_dir: Path, sw2_values) -> Path:
        """A metrics.csv with one row per sw2 value, other fields fixed."""
        run_dir.mkdir()
        rows = [",".join([str(4 * (i + 1)), sw2, "0.1", "0.9", "1.0", "2.0",
                          "0.5", "0.0", "0.3", "0.3", "0.0"])
                for i, sw2 in enumerate(sw2_values)]
        path = run_dir / "metrics.csv"
        path.write_text("\n".join([",".join(CSV_COLUMNS)] + rows) + "\n")
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_exit_4(self, tmp_path, capsys, value):
        metrics = self.write_metrics(tmp_path / "run", ["0.5", value, "0.25"])
        before = tree(tmp_path)
        assert cli_main(["plot", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert f"{metrics}: column 'sw2' holds a value that is NaN or " in err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("value", ["1e17", "4e15", "-3e20"])
    def test_single_row_at_any_magnitude(self, tmp_path, value):
        # every axis range is one value: the widening must separate it, and
        # a tick step must move the tick, at the value's precision
        self.write_metrics(tmp_path / "run", [value])
        written = plot_run(tmp_path / "run")
        assert len(written) == 4
        for path in written:
            svg = path.read_text()
            ET.fromstring(svg)
            assert not re.search(r"\b(nan|inf)\b", svg), path.name
        self.assert_y_labels_differ(tmp_path / "run" / "plots" / "sw2.svg")

    def test_narrow_range_tick_labels_differ(self, tmp_path):
        # two values that '%.6g' prints alike
        self.write_metrics(tmp_path / "run", ["0.123456789", "0.12345679"])
        plot_run(tmp_path / "run")
        labels = self.assert_y_labels_differ(
            tmp_path / "run" / "plots" / "sw2.svg")
        # each label prints its tick, a multiple of the 2.5e-10 step, exactly
        assert [Decimal(v) for v in labels] == [
            Decimal("0.123456789") + k * Decimal("2.5e-10") for k in range(5)]

    def test_samples_svg_draws_the_last_dump(self, tmp_path):
        # past iteration 999999 the file names outgrow their zero padding
        run_dir = tmp_path / "run"
        self.write_metrics(run_dir, ["0.5", "0.25"])
        (run_dir / "samples").mkdir()
        for it in (999900, 1000000):
            (run_dir / "samples" / f"iter_{it:06d}.csv").write_text(
                "x0,x1,label\n0.5,0.5,0\n-0.5,0.25,1\n")
        assert [p.name for p in RunArtifacts(run_dir).sample_paths()] == [
            "iter_999900.csv", "iter_1000000.csv"]
        plot_run(run_dir)
        svg = (run_dir / "plots" / "samples.svg").read_text()
        assert "Generated samples (iter_1000000)" in svg

    @staticmethod
    def assert_y_labels_differ(svg_path: Path) -> list:
        labels = re.findall(r'text-anchor="end" font-family="sans-serif" '
                            r'font-size="11">([^<]*)<', svg_path.read_text())
        assert len(labels) >= 3
        assert len(set(labels)) == len(labels), labels
        return labels

    @pytest.mark.parametrize("values", [["-1e308", "1e308"],
                                        ["0", "1.79e308"],
                                        ["1.7976931348623157e308"]],
                             ids=["spread", "margin", "widened_max"])
    def test_overflowing_range_exit_4(self, tmp_path, capsys, values):
        # the spread, or the plot's margin around it, passes the float range
        metrics = self.write_metrics(tmp_path / "run", values)
        before = tree(tmp_path)
        assert cli_main(["plot", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert (f"{metrics}: column 'sw2' spans more than the float range"
                in err)
        assert tree(tmp_path) == before


class TestRemovedPrecisionKey:
    """fp64 is the only precision; a stale "precision" key is rejected."""

    def test_run_config_rejects_precision(self, tmp_path, tiny_teacher_ckpt,
                                          capsys):
        raw = small_cfg(tiny_teacher_ckpt, precision="fp64")
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(raw)
        assert err.value.key == "precision"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "precision" in capsys.readouterr().err

    def test_teacher_config_rejects_precision(self, tmp_path, capsys):
        raw = {**TEACHER_CFG, "precision": "fp32"}
        with pytest.raises(ConfigError) as err:
            teacher_config_from_dict(raw)
        assert err.value.key == "precision"
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["train-teacher", str(path), "--out",
                         str(tmp_path)]) == 2
        assert "precision" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
LONG_INT = "9" * 5000  # past Python's 4300-digit int-string limit


def gmm8_json(**first_component) -> str:
    """gmm8's spec as JSON, with fields of its first component replaced."""
    obj = gmm8().to_json()
    obj["components"][0].update(first_component)
    return json.dumps(obj)


class TestMalformedValues:
    """Each malformed value exits 2 at load with a message naming its key."""

    @pytest.mark.parametrize("key,value", [
        ("lr_gen", NAN), ("lambda", INF), ("alpha", NAN), ("w_gan", NAN),
        ("mode", []), ("schedule_policy", {}), ("step_grid", [0, NAN]),
        ("data", 3),
        ("teacher", 3), ("normalizer_on", 1), ("tau_ca_range", [0, True]),
        ("step_grid", [0.0, 0.7, 0.4]), ("n_steps", 3),
        ("teacher", "no/such/teacher.ckpt"), ("data", "no/such/spec.json"),
        ("ttur_ratio", -1), ("lr_fake", 0.0), ("teacher", "t\0.ckpt"),
    ])
    def test_run_value(self, tmp_path, tiny_teacher_ckpt, capsys, key, value):
        self.assert_run_rejected(
            tmp_path, capsys, {**small_cfg(tiny_teacher_ckpt), key: value}, key)

    @staticmethod
    def assert_run_rejected(tmp_path, capsys, raw, key):
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(raw)
        assert err.value.key == key
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code = cli_main(["run", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert not (tmp_path / "run").exists()
        return err

    def test_top_level_array(self, tmp_path, tiny_teacher_ckpt, capsys):
        self.assert_run_rejected(tmp_path, capsys,
                                 [small_cfg(tiny_teacher_ckpt)], "<root>")
        self.assert_teacher_rejected(tmp_path, capsys, [TEACHER_CFG],
                                     "<root>")

    @staticmethod
    def assert_teacher_rejected(tmp_path, capsys, raw, key):
        with pytest.raises(ConfigError) as err:
            teacher_config_from_dict(raw)
        assert err.value.key == key
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps(raw))
        code = cli_main(["train-teacher", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,write", [
        ("teacher", lambda path: path.write_text("not a checkpoint")),
        ("teacher", lambda path: path.write_bytes(b"DMDL\x01\x00")),
        ("teacher", lambda path: save_params(init_params(
            NetConfig(dim=2, n_labels=8, hidden=8, n_hidden=1),
            np.random.default_rng(0)), path)),
        ("teacher", lambda path: save_params(init_params(
            NetConfig(dim=3, n_labels=4, hidden=8, n_hidden=1),
            np.random.default_rng(0)), path)),
        ("teacher", lambda path: save_params(init_params(
            NetConfig(dim=2, n_labels=4, hidden=8, n_hidden=1, out_dim=1),
            np.random.default_rng(0)), path)),
        ("teacher", lambda path: path.write_bytes(v1_checkpoint_bytes(
            init_params(TINY_NET, np.random.default_rng(0))))),
        ("data", lambda path: path.write_text("{not json")),
        ("data", lambda path: path.write_text('{"dim": 2, "labels": 4}')),
        ("data", lambda path: path.write_text("[1, 2]")),
        ("teacher", lambda path: path.write_bytes(
            checkpoint_bytes(TINY_FIELDS, TINY_SIZE, version=3))),
        ("teacher", lambda path: path.write_bytes(
            checkpoint_bytes(TINY_FIELDS, TINY_SIZE)[:-8])),
        ("teacher", lambda path: path.write_bytes(
            checkpoint_bytes((0,) + TINY_FIELDS[1:], TINY_SIZE))),
        ("teacher", lambda path: path.write_bytes(
            checkpoint_bytes(TINY_FIELDS, TINY_SIZE) + bytes(4))),
        ("teacher", lambda path: path.write_bytes(checkpoint_bytes(
            TINY_FIELDS[:1] + (0,) + TINY_FIELDS[2:], TINY_SIZE))),
        ("teacher", lambda path: path.write_bytes(checkpoint_bytes(
            TINY_FIELDS[:3] + (2 ** 32 - 1,) + TINY_FIELDS[4:], TINY_SIZE))),
        ("data", lambda path: path.write_text(json.dumps(
            {**gmm8().to_json(), "labels": 5}))),
        ("data", lambda path: path.write_text(gmm8_json(center=[0.0] * 3))),
        ("data", lambda path: path.write_text(gmm8_json(label=4))),
        ("data", lambda path: path.write_text(json.dumps(
            {**gmm8().to_json(), "labels": 0}))),
        ("data", lambda path: path.write_text(json.dumps(
            {**gmm8().to_json(), "dim": 2.9}))),
        ("data", lambda path: path.write_text(json.dumps(
            {**gmm8().to_json(), "labels": 4.5}))),
        ("data", lambda path: path.write_text(gmm8_json(label=0.7))),
        ("data", lambda path: path.write_text(f'{{"dim": {LONG_INT}}}')),
    ], ids=["not_dmdl", "truncated", "eight_labels", "dim_3", "out_dim_1",
            "version_1", "bad_json", "no_components", "not_object",
            "version_3", "short_data", "dim_0", "ragged_data", "no_labels",
            "huge_n_hidden", "label_without_data", "center_3d",
            "label_out_of_range", "labels_0", "dim_2p9", "labels_4p5",
            "label_0p7", "dim_too_long"])
    def test_run_file(self, tmp_path, tiny_teacher_ckpt, capsys, key, write):
        bad = tmp_path / "bad_input"
        write(bad)
        err = self.assert_run_rejected(
            tmp_path, capsys, {**small_cfg(tiny_teacher_ckpt), key: str(bad)},
            key)
        assert str(bad) in err

    @pytest.mark.parametrize("command,raw", [
        ("run", None), ("train-teacher", TEACHER_CFG)])
    def test_integer_too_long_in_config_file(self, tmp_path, tiny_teacher_ckpt,
                                             capsys, command, raw):
        # json.loads rejects it with a ValueError that is no JSONDecodeError
        raw = raw or small_cfg(tiny_teacher_ckpt)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**raw, "seed": "LONG"}).replace(
            '"LONG"', LONG_INT))
        out = tmp_path / "out"
        assert cli_main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "<json>" in err and "4300" in err
        assert not out.exists()

    def test_integer_too_long_in_override(self, tmp_path, tiny_teacher_ckpt,
                                          capsys):
        # such an override is the string of its digits, not a number
        argv = ["preset", "observer", "--out", str(tmp_path / "ob")]
        for over in (f'teacher="{tiny_teacher_ckpt}"', f"alpha={LONG_INT}"):
            argv += ["--override", over]
        assert cli_main(argv) == 2
        assert "config key 'alpha': expected a finite number" in (
            capsys.readouterr().err)
        assert not (tmp_path / "ob").exists()

    def test_teacher_must_fit_data_file(self, tmp_path, tiny_teacher_ckpt):
        # a valid spec that is not gmm8-shaped: the 2-D, 4-label teacher
        # does not fit 1-D data
        spec = MixtureSpec(dim=1, label_count=4, components=[
            Component(label, np.array([float(label)]), np.array([0.1]), 1.0)
            for label in range(4)])
        spec.save(tmp_path / "line.json")
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(small_cfg(tiny_teacher_ckpt,
                                           data=str(tmp_path / "line.json")))
        assert err.value.key == "teacher"

    @pytest.fixture
    def line_data(self, tmp_path):
        """A valid 1-D, 2-label spec and a teacher that fits it."""
        spec = MixtureSpec(dim=1, label_count=2, components=[
            Component(label, np.array([float(label)]), np.array([0.1]), 1.0)
            for label in range(2)])
        spec.save(tmp_path / "line.json")
        save_params(init_params(NetConfig(dim=1, n_labels=2, hidden=8,
                                          n_hidden=1),
                                np.random.default_rng(0)),
                    tmp_path / "line.ckpt")
        return str(tmp_path / "line.json"), str(tmp_path / "line.ckpt")

    def test_one_dimensional_data(self, tmp_path, tiny_teacher_ckpt, capsys,
                                  line_data):
        # per-sample variance across coordinates needs dim >= 2
        data, teacher = line_data
        self.assert_run_rejected(
            tmp_path, capsys,
            {**small_cfg(tiny_teacher_ckpt), "data": data, "teacher": teacher},
            "data")
        self.assert_teacher_rejected(tmp_path, capsys,
                                     {**TEACHER_CFG, "data": data}, "data")
        with pytest.raises(ConfigError) as err:
            run_preset("observer", tmp_path / "p", {"data": data})
        assert err.value.key == "data"
        assert not (tmp_path / "p" / "teacher.ckpt").exists()

    @pytest.mark.parametrize("text", ["{not json", '{"dim": 2}', "[]"])
    def test_teacher_data_file(self, tmp_path, capsys, text):
        (tmp_path / "spec.json").write_text(text)
        self.assert_teacher_rejected(
            tmp_path, capsys,
            {**TEACHER_CFG, "data": str(tmp_path / "spec.json")}, "data")

    @pytest.mark.parametrize("key,value", [
        ("lr", NAN), ("ema_decay", 5), ("lr_final", "x"), ("lr_final", None),
        ("tau_law", "cosine"), ("iterations", INF), ("p_uncond", 1.0),
        ("out", None), ("data", "no/such/spec.json"), ("batch", 0),
        ("log", "log\0.csv"),
    ])
    def test_teacher_value(self, tmp_path, capsys, key, value):
        self.assert_teacher_rejected(tmp_path, capsys,
                                     {**TEACHER_CFG, key: value}, key)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([NAN, INF, -INF]), st.text(max_size=6))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.dictionaries(st.text(max_size=4), _SCALARS,
                                    max_size=2))


class TestUnreadableConfigFile:
    """A config file that cannot be read as UTF-8 text exits 2 at load."""

    @pytest.mark.parametrize("command,make", [
        ("run", lambda path: None),
        ("run", lambda path: path.mkdir()),
        ("run", lambda path: path.write_bytes(b"\xff\xfe")),
        ("train-teacher", lambda path: None),
    ], ids=["missing", "directory", "not_utf8", "teacher_missing"])
    def test_exit_2(self, tmp_path, capsys, command, make):
        path = tmp_path / "cfg.json"
        make(path)
        out = tmp_path / "out"
        code = cli_main([command, str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "<json>" in err and str(path) in err
        assert not out.exists()


class TestConfigFuzz:
    """Loaders return a dict or raise ConfigError, whatever one key holds; a
    returned dict holds no NaN or infinity (strict JSON refuses them)."""

    @settings(max_examples=400, deadline=None)
    @given(key=st.sampled_from(list(RUN_KEYS)),
           value=_VALUES)
    def test_run_config(self, tiny_teacher_ckpt, key, value):
        try:
            cfg = run_config_from_dict({**small_cfg(tiny_teacher_ckpt),
                                        key: value})
        except ConfigError:
            return
        json.dumps(cfg, allow_nan=False)

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(list(TEACHER_KEYS)),
           value=_VALUES)
    def test_teacher_config(self, key, value):
        try:
            cfg = teacher_config_from_dict({**TEACHER_CFG, key: value})
        except ConfigError:
            return
        json.dumps(cfg, allow_nan=False)


class TestRangesOwnedByTypedConfigs:
    """The loader checks types; the typed configs alone check value ranges,
    and their messages reach the key at fault."""

    @pytest.mark.parametrize("over,key", [
        ({"n_steps": 4, "step_grid": [0.0, 0.5]}, "n_steps"),
        ({"n_steps": 0, "step_grid": [0.0]}, "n_steps"),
        ({"n_steps": 0}, "n_steps"), ({"alpha": -0.5}, "alpha"),
        ({"lambda": 0}, "lambda"), ({"batch": 0}, "batch"),
        ({"w_gan": -1.0}, "w_gan"), ({"w_meanvar": -1e-3}, "w_meanvar"),
        ({"lr_gen": -1e-4}, "lr_gen"),
        ({"tau_dm_range": [0.5, 0.5]}, "tau_dm_range"),
        ({"tau_ca_range": [-0.1, 0.5]}, "tau_ca_range"),
        # COUPLED_SHARED makes one draw, so a second range would be dropped
        ({"tau_ca_range": [0.0, 0.2], "tau_dm_range": [0.8, 1.0]},
         "tau_dm_range"),
    ])
    def test_run_range(self, tiny_teacher_ckpt, over, key):
        with pytest.raises(ConfigError) as err:
            run_config_from_dict(small_cfg(tiny_teacher_ckpt, **over))
        assert err.value.key == key

    @pytest.mark.parametrize("over,key", [
        ({"lr": -1e-3, "lr_final": -1e-3}, "lr"), ({"lr": 0.0}, "lr"),
        ({"iterations": 0}, "iterations"), ({"batch": -2}, "batch"),
    ])
    def test_teacher_range(self, over, key):
        with pytest.raises(ConfigError) as err:
            teacher_config_from_dict({**TEACHER_CFG, **over})
        assert err.value.key == key


class TestRunIdentities:
    """The alpha = 1 reduction and THEORY_DMD hold for whole runs: the
    metrics.csv bytes equal DM_ONLY's."""

    @pytest.mark.parametrize("normalizer_on", [True, False])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), alpha=st.floats(0.0, 8.0),
           policy=st.sampled_from(["COUPLED_SHARED", "DECOUPLED_FULL",
                                   "DECOUPLED_CONSTRAINED",
                                   "DECOUPLED_HYBRID"]),
           n_steps=st.sampled_from([1, 2]))
    def test_alpha_one_and_theory_equal_dm_only(
            self, tiny_teacher_ckpt, seed, alpha, normalizer_on, policy,
            n_steps):
        base = small_cfg(tiny_teacher_ckpt, seed=seed, iterations=12,
                         eval_every=6, normalizer_on=normalizer_on,
                         schedule_policy=policy, n_steps=n_steps)
        variants = {"dm_only": {"mode": "DM_ONLY", "alpha": alpha},
                    "full_alpha_1": {"mode": "FULL_DMD", "alpha": 1.0},
                    "theory": {"mode": "THEORY_DMD", "alpha": alpha}}
        with tempfile.TemporaryDirectory() as tmp:
            metrics = {
                name: run_config(run_config_from_dict({**base, **over}),
                                 Path(tmp) / name).metrics_path.read_bytes()
                for name, over in variants.items()}
        assert metrics["full_alpha_1"] == metrics["dm_only"]
        assert metrics["theory"] == metrics["dm_only"]


def given_twice(raw: dict, key: str, value) -> str:
    """raw as JSON text, with key given a second time, last, as value."""
    return f"{json.dumps(raw)[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"


class TestDuplicateKeys:
    """A key given twice exits 2 under that key, or under data inside a
    mixture spec file, instead of its last value winning silently."""

    def test_run_config_file(self, tmp_path, tiny_teacher_ckpt, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(given_twice(small_cfg(tiny_teacher_ckpt), "alpha",
                                    1.4))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert err.value.key == "alpha"
        code = cli_main(["run", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config key 'alpha': given twice" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_teacher_config_file(self, tmp_path, capsys):
        path = tmp_path / "teacher.json"
        path.write_text(given_twice(TEACHER_CFG, "lr", 1e-2))
        code = cli_main(["train-teacher", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == 2
        assert "config key 'lr': given twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mixture_spec_file(self, tmp_path, tiny_teacher_ckpt, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(given_twice(gmm8().to_json(), "labels", 4))
        err = TestMalformedValues.assert_run_rejected(
            tmp_path, capsys, small_cfg(tiny_teacher_ckpt, data=str(spec)),
            "data")
        assert "'labels': given twice" in err

    def test_preset_override(self, tmp_path, tiny_teacher_ckpt, capsys):
        argv = ["preset", "observer", "--out", str(tmp_path / "ob")]
        for over in ("iterations=2", "batch=8", "eval_every=2", "eval_n=16",
                     "eval_ref_n=64", f'teacher="{tiny_teacher_ckpt}"',
                     "alpha=1.4", "alpha=4.0"):
            argv += ["--override", over]
        assert cli_main(argv) == 2
        assert "config key 'alpha': given twice" in capsys.readouterr().err
        assert not (tmp_path / "ob").exists()


class TestPresetCli:
    def test_cli_preset_with_overrides(self, tmp_path, tiny_teacher_ckpt,
                                       capsys):
        code = cli_main([
            "preset", "observer", "--out", str(tmp_path / "ob"),
            "--override", "iterations=4", "--override", "batch=8",
            "--override", "eval_every=2", "--override", "eval_n=16",
            "--override", "eval_ref_n=64",
            "--override", f'teacher="{tiny_teacher_ckpt}"',
        ])
        assert code == 0
        assert (tmp_path / "ob" / "summary.csv").exists()
        assert "1 runs" in capsys.readouterr().out

    def test_override_checked_before_teacher(self, tmp_path, capsys):
        # a bad value must not wait for the 20k-iteration default teacher
        with pytest.raises(ConfigError) as err:
            run_preset("decompose", tmp_path / "p", {"alpha": NAN})
        assert err.value.key == "alpha"
        assert not (tmp_path / "p" / "teacher.ckpt").exists()
        code = cli_main(["preset", "decompose", "--out", str(tmp_path / "c"),
                         "--override", "alpha=NaN"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "c" / "teacher.ckpt").exists()

    def test_aborted_member_leaves_its_dump(self, tmp_path,
                                            tiny_teacher_ckpt, capsys):
        # w_gan scales only the GAN regularizer, so only ca_gan overflows
        root = tmp_path / "rg"
        over = {"iterations": 4, "batch": 8, "eval_every": 2, "eval_n": 16,
                "eval_ref_n": 64, "teacher": str(tiny_teacher_ckpt),
                "w_gan": 1e300}
        argv = ["preset", "regularizers", "--out", str(root)]
        for key, value in over.items():
            argv += ["--override", f"{key}={json.dumps(value)}"]
        with np.errstate(all="ignore"):
            assert cli_main(argv) == 0
        assert "4 runs" in capsys.readouterr().out
        with open(root / "summary.csv", newline="") as fh:
            rows = {r["run"]: r for r in csv.DictReader(fh)}
        assert {run: r["aborted"] for run, r in rows.items()} == {
            "ca_none": "false", "ca_dm": "false", "ca_meanvar_kl": "false",
            "ca_gan": "true"}
        for run in ("ca_none", "ca_dm", "ca_meanvar_kl"):
            assert rows[run]["iterations"] == "4"
            assert not (root / run / "diagnostic_dump.json").exists()
        dump = json.loads((root / "ca_gan" / "diagnostic_dump.json")
                          .read_text())
        assert dump == {"error": "non-finite gradients", "iteration": 1,
                        "network": "generator", "slot": "w0"}
        assert not (root / "diagnostic_dump.json").exists()

    def test_cli_preset_override_without_equals_exit_2(self, tmp_path,
                                                        capsys):
        code = cli_main(["preset", "decompose", "--out", str(tmp_path / "x"),
                         "--override", "foo"])
        assert code == 2
        assert "config key '<override>': expected k=v, got 'foo'" in (
            capsys.readouterr().err)
        assert tree(tmp_path) == []

    def test_cli_preset_unknown_override_exit_2(self, tmp_path, capsys):
        code = cli_main(["preset", "decompose", "--out", str(tmp_path / "x"),
                         "--override", "bogus=1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "x" / "teacher.ckpt").exists()

    def test_shared_teacher_follows_lab_seed(self, tmp_path, monkeypatch):
        # the default teacher is trained from the seed its members run with;
        # a stand-in replaces the 20k-iteration training
        import dmdlab.lab.runner as runner_mod
        states = []

        def stand_in(spec, config, rng, log_path=None):
            states.append(rng.bit_generator.state)
            return init_params(NetConfig(dim=spec.dim,
                                         n_labels=spec.label_count,
                                         hidden=16, n_hidden=2), rng)

        monkeypatch.setattr(runner_mod, "train_teacher", stand_in)
        monkeypatch.setenv("LAB_SEED", "7")
        arts = run_preset("observer", tmp_path / "ob", {
            "iterations": 2, "batch": 8, "eval_every": 2, "eval_n": 16,
            "eval_ref_n": 64})
        assert states == [np.random.default_rng(7).bit_generator.state]
        snapshot = json.loads(arts[0].config_path.read_text())
        assert snapshot["seed"] == 7
        assert snapshot["teacher"] == str(tmp_path / "ob" / "teacher.ckpt")


class TestTeacherCli:
    def test_train_teacher_cli(self, tmp_path, capsys):
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps(TEACHER_CFG))
        code = cli_main(["train-teacher", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "t.ckpt").exists()
        assert (tmp_path / "t_log.csv").exists()

    def test_train_teacher_missing_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps({"iterations": 10}))
        assert cli_main(["train-teacher", str(path)]) == 2


def mixture_file(path: Path, dim: int, labels: int, center=0.0) -> Path:
    MixtureSpec(dim=dim, label_count=labels, components=[
        Component(label, np.full(dim, center), np.ones(dim), 1.0)
        for label in range(labels)]).save(path)
    return path


class TestDefaultTeacher:
    """A default teacher already in place is checked against the data before
    anything is written; a teacher's training abort leaves its dump where
    the command writes (--out, run directory, preset root)."""

    @staticmethod
    def run_cfg(tmp_path: Path, data: Path) -> Path:
        raw = small_cfg(None, data=str(data))
        del raw["teacher"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_directory_teacher_is_reused(self, tmp_path,
                                             tiny_teacher_ckpt, monkeypatch):
        import dmdlab.lab.runner as runner_mod

        def no_training(*args, **kwargs):
            raise AssertionError("the teacher in place must be reused")

        monkeypatch.setattr(runner_mod, "train_teacher", no_training)
        raw = small_cfg(None)
        del raw["teacher"]
        ckpt = tmp_path / "run" / "checkpoints" / "teacher.ckpt"
        ckpt.parent.mkdir(parents=True)
        ckpt.write_bytes(tiny_teacher_ckpt.read_bytes())
        art = run_config(run_config_from_dict(raw), tmp_path / "run")
        named = run_config(run_config_from_dict(small_cfg(tiny_teacher_ckpt)),
                           tmp_path / "named")
        assert ckpt.read_bytes() == tiny_teacher_ckpt.read_bytes()
        assert json.loads(art.config_path.read_text())["teacher"] == str(ckpt)
        assert art.metrics_path.read_bytes() == named.metrics_path.read_bytes()

    @pytest.mark.parametrize("foreign", ["checkpoint", "junk"])
    def test_run_directory_teacher_must_fit(self, tmp_path, tiny_teacher_ckpt,
                                            capsys, foreign):
        # the tiny teacher is 2-D with 4 labels; the data is 3-D with 2
        cfg = self.run_cfg(tmp_path, mixture_file(tmp_path / "d3.json", 3, 2))
        ckpt = tmp_path / "run" / "checkpoints" / "teacher.ckpt"
        ckpt.parent.mkdir(parents=True)
        ckpt.write_bytes(tiny_teacher_ckpt.read_bytes()
                         if foreign == "checkpoint" else b"not a checkpoint")
        before = tree(tmp_path)
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "config key 'teacher'" in capsys.readouterr().err
        assert tree(tmp_path) == before

    def test_preset_root_teacher_must_fit(self, tmp_path, tiny_teacher_ckpt,
                                          capsys):
        data = mixture_file(tmp_path / "d3.json", 3, 2)
        root = tmp_path / "p"
        root.mkdir()
        (root / "teacher.ckpt").write_bytes(tiny_teacher_ckpt.read_bytes())
        before = tree(tmp_path)
        assert cli_main(["preset", "decompose", "--out", str(root),
                         "--override", f"data={data}"]) == 2
        assert "config key 'teacher'" in capsys.readouterr().err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("command,dump", [
        ("train-teacher", {"error": "non-finite network output",
                           "iteration": 2}),
        ("run", {"error": "non-finite gradients", "iteration": 1,
                 "slot": "w0"}),
        ("preset", {"error": "non-finite gradients", "iteration": 1,
                    "slot": "w0"}),
    ])
    def test_teacher_abort_dumps(self, tmp_path, capsys, command, dump):
        # a teacher at lr 1e300 overflows its second forward pass; the
        # default teacher on a mixture centred at 1e200 its first Adam step
        far = mixture_file(tmp_path / "far.json", 2, 1, center=1e200)
        out = tmp_path / "out"
        if command == "train-teacher":
            path = tmp_path / "teacher.json"
            path.write_text(json.dumps({**TEACHER_CFG, "iterations": 2,
                                        "lr": 1e300}))
            argv = ["train-teacher", str(path), "--out", str(out)]
        elif command == "run":
            argv = ["run", str(self.run_cfg(tmp_path, far)), "--out", str(out)]
        else:
            argv = ["preset", "decompose", "--out", str(out),
                    "--override", f"data={far}"]
        with np.errstate(all="ignore"):
            assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert f"diagnostics at {out / 'diagnostic_dump.json'}\n" in err
        assert "<no dump>" not in err
        assert json.loads((out / "diagnostic_dump.json").read_text()) == {
            **dump, "network": "teacher"}
        assert not list(out.rglob("*.ckpt"))


_RUN_PROBE = ("from dmdlab.lab.config import run_config_from_dict; "
              "from dmdlab.lab.runner import run_config; "
              "run_config(run_config_from_dict(json.loads(sys.argv[1])), "
              "sys.argv[2])")


@pytest.mark.parametrize("probe, banned", [
    ("import dmdlab, dmdlab.lab.cli, dmdlab.lab.presets", {"scipy"}),
    (_RUN_PROBE, {"scipy", "numpy.ma"}),
], ids=["import", "run"])
def test_lab_loads_no_unused_package(probe, banned, tiny_teacher_ckpt,
                                     tmp_path):
    # the lab needs only numpy: scipy.stats alone costs about 65 MB and 1 s
    # at import, and numpy.ma (which np.unique imports) about 1.8 MB, so
    # importing the package and the CLI must not load scipy, and a run
    # through its evaluation points must load neither
    src = str(Path(dmdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import json, sys; {probe}; print(*sys.modules, sep='\\n')"
    argv = [json.dumps(small_cfg(tiny_teacher_ckpt)), str(tmp_path / "run")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert [m for m in out.split() if any(
        m == b or m.startswith(b + ".") for b in banned)] == []


class TestNonFiniteDumpNamesNetwork:
    """A non-finite pass names its network in the diagnostic dump."""

    @staticmethod
    def dump_of_poisoned_run(tmp_path, slot, index, **over) -> dict:
        params = init_params(NetConfig(dim=2, n_labels=4, hidden=16,
                                       n_hidden=2), np.random.default_rng(0))
        dict(params.slots())[slot][index] = np.inf
        teacher = tmp_path / "poisoned.ckpt"
        save_params(params, teacher)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(teacher, **over)))
        with np.errstate(invalid="ignore", over="ignore"):
            code = cli_main(["run", str(path), "--out", str(tmp_path / "run")])
        assert code == 3
        return json.loads((tmp_path / "run" / "diagnostic_dump.json")
                          .read_text())

    @pytest.mark.parametrize("slot,index,network", [
        # the generator starts as a copy of the teacher, so it runs first
        ("w0", (0, 0), "generator"),
        # only the teacher's unconditional prediction reads the null row
        ("cond_embed", (-1, 0), "teacher"),
    ])
    def test_forward_output(self, tmp_path, slot, index, network):
        assert self.dump_of_poisoned_run(tmp_path, slot, index) == {
            "error": "non-finite network output", "network": network,
            "iteration": 1}

    def test_teacher_read_in_place_of_the_fake(self, tmp_path):
        # CA_ONLY trains no fake, so its fake is the teacher object itself
        dump = self.dump_of_poisoned_run(tmp_path, "cond_embed", (-1, 0),
                                         mode="CA_ONLY")
        assert dump["network"] == "teacher"


def test_abort_names_the_teacher_when_it_is_the_fake(tmp_path):
    teacher = init_params(NetConfig(dim=2, n_labels=4, hidden=8, n_hidden=1),
                          np.random.default_rng(0))
    err = NonFiniteError("non-finite network output", params=teacher)
    _abort(err, tmp_path / "dump.json", generator=teacher.copy(),
           teacher=teacher, fake=teacher, disc=None)
    assert err.context["network"] == "teacher"
    assert json.loads((tmp_path / "dump.json").read_text())["network"] == (
        "teacher")


def test_preset_json_records_the_members_seed(tmp_path, tiny_teacher_ckpt,
                                              monkeypatch):
    over = {"iterations": 2, "batch": 8, "eval_every": 2, "eval_n": 16,
            "eval_ref_n": 64, "teacher": str(tiny_teacher_ckpt)}
    for env, seed in ((None, 0), ("7", 7)):
        if env is not None:
            monkeypatch.setenv("LAB_SEED", env)
        out = tmp_path / f"ob_{seed}"
        arts = run_preset("observer", out, over)
        preset = json.loads((out / "preset.json").read_text())
        snapshot = json.loads(arts[0].config_path.read_text())
        assert preset["base"]["seed"] == snapshot["seed"] == seed


def test_preset_json_names_the_preset(tmp_path, tiny_teacher_ckpt):
    run_preset("observer", tmp_path, {
        "iterations": 2, "batch": 8, "eval_every": 2, "eval_n": 16,
        "eval_ref_n": 64, "teacher": str(tiny_teacher_ckpt)})
    assert json.loads((tmp_path / "preset.json").read_text())["preset"] == (
        "observer")


def field_keys(config) -> list:
    return [FIELD_KEYS.get(f.name, f.name) for f in dataclasses.fields(config)]


def required(keys: dict) -> list:
    return [key for key, spec in keys.items() if spec.default is REQUIRED]


def defaults(keys: dict) -> dict:
    return {key: spec.default for key, spec in keys.items()
            if spec.default is not REQUIRED}


class TestConfigSchema:
    """Each key is one table row: no key silently does nothing, and every
    default is written once."""

    def test_required_keys_come_first(self):
        for keys in (RUN_KEYS, TEACHER_KEYS):
            assert required(keys) + list(defaults(keys)) == list(keys)
        assert required(RUN_KEYS)[:3] == ["mode", "schedule_policy", "alpha"]
        assert required(TEACHER_KEYS) == ["iterations", "batch", "lr",
                                          "p_uncond", "seed"]

    def test_typed_fields_own_their_defaults(self):
        run_defaults = defaults(RUN_KEYS)
        owned = {key: f.default
                 for key, f in zip(field_keys(DistillConfig),
                                   dataclasses.fields(DistillConfig))
                 if key in run_defaults}
        assert {"w_meanvar", "lr_gen", "lr_fake"} <= set(owned)
        for key, default in owned.items():
            assert run_defaults[key] == default, key
        for key in ("lr_final", "ema_decay"):
            assert defaults(TEACHER_KEYS)[key] == getattr(TeacherConfig(), key)

    def test_every_typed_field_is_fed_by_a_key(self):
        assert set(field_keys(DistillConfig)) <= set(RUN_KEYS)
        assert set(field_keys(TeacherConfig)) <= set(TEACHER_KEYS)

    def test_every_other_key_is_read_by_name(self):
        lab = Path(dmdlab.__file__).resolve().parent / "lab"
        read = set()
        for module in ("runner.py", "presets.py"):
            tree = ast.parse((lab / module).read_text())
            read |= {node.slice.value for node in ast.walk(tree)
                     if isinstance(node, ast.Subscript)
                     and isinstance(node.slice, ast.Constant)}
        fed = set(field_keys(DistillConfig))
        assert set(RUN_KEYS) - fed - read == set()
        assert set(TEACHER_KEYS) - set(field_keys(TeacherConfig)) - read \
            == set()

    def test_readme_defaults_match_the_loader(self):
        # README gives defaults as `key` (value); each JSON literal among
        # them must equal the loader's default for that config file, and
        # every number or true/false default is given that way
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        run_part, teacher_part = readme.split("### Run config", 1)[1].split(
            "Teacher config keys", 1)
        teacher_part = teacher_part.split("\n\n", 1)[0]
        checked = 0
        for text, keys in ((run_part, RUN_KEYS), (teacher_part, TEACHER_KEYS)):
            optional = defaults(keys)
            seen = set()
            for key, value in re.findall(r"`(\w+)`\s+\(([^()]*)\)", text):
                try:
                    literal = json.loads(value)
                except json.JSONDecodeError:
                    continue
                assert key in optional, key
                assert literal == optional[key], key
                seen.add(key)
                checked += 1
            assert {key for key, value in optional.items()
                    if isinstance(value, (bool, int, float))} <= seen
        assert checked >= 11


def tree(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestOutputPathsAndReference:
    """Each case exits 2 naming its key, before any file is written."""

    @staticmethod
    def assert_exit_2(tmp_path, capsys, argv, key):
        before = tree(tmp_path)
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "Traceback" not in err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_eval_ref_n_leaving_a_label_empty(self, tmp_path, capsys,
                                              monkeypatch, tiny_teacher_ckpt,
                                              seed):
        monkeypatch.setenv("LAB_SEED", seed)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(tiny_teacher_ckpt, eval_ref_n=4)))
        self.assert_exit_2(tmp_path, capsys, [
            "run", str(path), "--out", str(tmp_path / "run")], "eval_ref_n")
        # checked for every member before the default teacher is trained
        self.assert_exit_2(tmp_path, capsys, [
            "preset", "decompose", "--out", str(tmp_path / "p"),
            "--override", "eval_ref_n=4"], "eval_ref_n")

    def test_eval_ref_n_4_covering_every_label_runs(self, tmp_path,
                                                    tiny_teacher_ckpt):
        # seed 0 draws one reference point per label
        cfg = run_config_from_dict(small_cfg(tiny_teacher_ckpt, seed=0,
                                             eval_ref_n=4))
        assert run_config(cfg, tmp_path / "run").metrics_path.exists()

    def test_run_out_dir_naming_a_file(self, tmp_path, capsys,
                                       tiny_teacher_ckpt):
        (tmp_path / "afile").write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(
            tiny_teacher_ckpt, out_dir=str(tmp_path / "afile"))))
        self.assert_exit_2(tmp_path, capsys, ["run", str(path)], "out_dir")
        for out in ("afile", "afile/sub"):
            self.assert_exit_2(tmp_path, capsys, [
                "run", str(path), "--out", str(tmp_path / out)], "--out")

    def test_preset_out_naming_a_file(self, tmp_path, capsys,
                                      tiny_teacher_ckpt):
        (tmp_path / "afile").write_text("")
        self.assert_exit_2(tmp_path, capsys, [
            "preset", "observer", "--out", str(tmp_path / "afile"),
            "--override", f'teacher="{tiny_teacher_ckpt}"'], "--out")

    @pytest.mark.parametrize("entry", ["samples", "checkpoints"])
    def test_run_directory_entry_naming_a_file(self, tmp_path, capsys,
                                               tiny_teacher_ckpt, entry):
        # the run writes into <run>/samples and <run>/checkpoints; either
        # one a file fails before the teacher, the snapshot or samples/
        for run_dir in (tmp_path / "r", tmp_path / "p" / "dm_only"):
            run_dir.mkdir(parents=True)
            (run_dir / entry).write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(
            tiny_teacher_ckpt, out_dir=str(tmp_path / "r"))))
        self.assert_exit_2(tmp_path, capsys, ["run", str(path)], "out_dir")
        self.assert_exit_2(tmp_path, capsys, [
            "run", str(path), "--out", str(tmp_path / "r")], "--out")
        self.assert_exit_2(tmp_path, capsys, [
            "preset", "decompose", "--out", str(tmp_path / "p"),
            "--override", f'teacher="{tiny_teacher_ckpt}"'], "--out")

    @pytest.mark.parametrize("entry", [
        "config_snapshot.json", "metrics.csv", "manifest.json",
        "diagnostic_dump.json", "observer_probe.csv",
        "checkpoints/generator.ckpt", "samples/iter_000008.csv"])
    def test_run_directory_file_naming_a_directory(self, tmp_path, capsys,
                                                   tiny_teacher_ckpt, entry):
        # each fails before the snapshot, samples/ or checkpoints/, and a
        # preset member's before any member is written
        for run_dir in (tmp_path / "r", tmp_path / "p" / "observer"):
            (run_dir / entry).mkdir(parents=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_cfg(
            tiny_teacher_ckpt, mode="CA_ONLY", observer_mode=True,
            out_dir=str(tmp_path / "r"))))
        self.assert_exit_2(tmp_path, capsys, ["run", str(path)], "out_dir")
        self.assert_exit_2(tmp_path, capsys, [
            "run", str(path), "--out", str(tmp_path / "r")], "--out")
        self.assert_exit_2(tmp_path, capsys, [
            "preset", "observer", "--out", str(tmp_path / "p"),
            "--override", f'teacher="{tiny_teacher_ckpt}"',
            "--override", "iterations=8", "--override", "eval_every=4"],
            "--out")

    def test_dump_naming_a_directory(self, tmp_path, capsys):
        # a teacher at lr 1e300 aborts; the default teacher of a preset on a
        # mixture centred at 1e200 aborts at its first Adam step
        (tmp_path / "o" / "diagnostic_dump.json").mkdir(parents=True)
        (tmp_path / "p" / "diagnostic_dump.json").mkdir(parents=True)
        far = mixture_file(tmp_path / "far.json", 2, 1, center=1e200)
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps({**TEACHER_CFG, "iterations": 2,
                                    "lr": 1e300}))
        self.assert_exit_2(tmp_path, capsys, [
            "train-teacher", str(path), "--out", str(tmp_path / "o")], "--out")
        self.assert_exit_2(tmp_path, capsys, [
            "preset", "decompose", "--out", str(tmp_path / "p"),
            "--override", f"data={far}"], "--out")

    def test_preset_out_dir_override(self, tmp_path, capsys,
                                     tiny_teacher_ckpt):
        # a preset's runs go under --out; an out_dir would be ignored
        self.assert_exit_2(tmp_path, capsys, [
            "preset", "observer", "--out", str(tmp_path / "p"),
            "--override", f'teacher="{tiny_teacher_ckpt}"',
            "--override", f'out_dir="{tmp_path / "elsewhere"}"'], "out_dir")

    def test_preset_member_key_override(self, tmp_path, capsys,
                                        tiny_teacher_ckpt):
        # every schedule-ablation member sets n_steps and schedule_policy,
        # so these overrides would do nothing
        self.assert_exit_2(tmp_path, capsys, [
            "preset", "schedule-ablation", "--out", str(tmp_path / "p"),
            "--override", f'teacher="{tiny_teacher_ckpt}"',
            "--override", "iterations=2", "--override", "eval_every=2",
            "--override", "batch=8", "--override", "n_steps=2",
            "--override", "schedule_policy=DECOUPLED_FULL"], "n_steps")

    @pytest.mark.parametrize("over,key", [
        ({}, "--out"), ({"out": "adir"}, "out"), ({"log": "adir"}, "log"),
        ({"out": ""}, "out"), ({"log": "t.ckpt/l.csv"}, "out"),
        ({"out": "afile/t.ckpt"}, "out"),
        ({"out": "l.csv", "log": "l.csv"}, "log"),  # two outputs at one path
        ({"out": "l.csv", "log": "sub/../l.csv"}, "log"),
    ])
    def test_teacher_output_paths(self, tmp_path, capsys, over, key):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        out = tmp_path / ("afile" if key == "--out" else ".")
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps({**TEACHER_CFG, **over}))
        self.assert_exit_2(tmp_path, capsys, [
            "train-teacher", str(path), "--out", str(out)], key)

    @pytest.mark.parametrize("over,written", [
        ({"out": "sub/t.ckpt"}, ["sub/t.ckpt", "t_log.csv"]),
        ({"log": "logs/l.csv"}, ["t.ckpt", "logs/l.csv"]),
    ])
    def test_teacher_outputs_in_subdirectories(self, tmp_path, capsys, over,
                                               written):
        path = tmp_path / "teacher.json"
        path.write_text(json.dumps({**TEACHER_CFG, "iterations": 2, **over}))
        assert cli_main(["train-teacher", str(path), "--out",
                         str(tmp_path / "o")]) == 0
        assert sorted(p.relative_to(tmp_path / "o").as_posix()
                      for p in (tmp_path / "o").rglob("*") if p.is_file()
                      ) == sorted(written)


@pytest.mark.parametrize("over,code,written", [
    ({"mode": "CA_ONLY", "regularizer": "GAN", "observer_mode": True}, 0,
     {"disc.ckpt", "observer_probe.csv"}),
    ({"lr_fake": 1e40}, 3, {"diagnostic_dump.json"}),
])
def test_every_path_a_run_leaves_was_checked(tmp_path, tiny_teacher_ckpt,
                                             monkeypatch, over, code,
                                             written):
    # a writer that RunArtifacts.check does not know of fails here
    import dmdlab.lab.runner as runner_mod
    rows, check = [], runner_mod.check_outputs

    def recording_check(checked):
        rows.extend(checked)
        check(checked)
    monkeypatch.setattr(runner_mod, "check_outputs", recording_check)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_cfg(tiny_teacher_ckpt, **over)))
    run_dir = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert cli_main(["run", str(path), "--out", str(run_dir)]) == code
    left = {p.resolve() for p in run_dir.rglob("*")}
    assert written <= {p.name for p in left}
    assert left <= {Path(p).resolve() for _, p, _ in rows}
    assert {key for key, _, _ in rows} == {"--out"}


_ODD = [None, True, "x", [], [0.5], {"a": 1}, NAN, INF, 10 ** 400]

# Per key, desk-size legal values and malformed ones (with _ODD added). The
# budget keys stay small so that an example runs in milliseconds, and the
# teacher is always given, since a run without one trains the 20k-iteration
# default teacher. "<...>" names a path made per example.
RUN_VALUES = {
    "mode": ["FULL_DMD", "CA_ONLY", "DM_ONLY", "THEORY_DMD"],
    "schedule_policy": ["COUPLED_SHARED", "DECOUPLED_FULL",
                        "DECOUPLED_CONSTRAINED", "DECOUPLED_HYBRID"],
    "alpha": [0.0, 1.0, 4.0, -1.0, 1e300], "lambda": [1.0, 0.0, 1e200],
    "n_steps": [1, 2, 4, 3, 2.5], "ttur_ratio": [0, 2, -1],
    "regularizer": ["NONE", "MEANVAR_KL", "GAN"],
    "w_gan": [0.0, 0.05, -1.0, 1e300], "normalizer_on": [False],
    "seed": [0, 1, 2, -1, 1.5], "iterations": [1, 3, 0],
    "batch": [1, 8, 0], "tau_ca_range": [[0.2, 0.6], [0.6, 0.2], [0, 2]],
    "tau_dm_range": [[0.0, 1.0], [0.3, 0.9], [0.5, 0.5]],
    "w_meanvar": [0.0, 20.0, -1.0, 1e300], "eval_every": [1, 2, 0],
    "eval_n": [4, 16, 3], "eval_ref_n": [4, 64, 3],
    "data": ["gmm8", "<line>", "<missing>", "<file>"],
    "teacher": ["<missing>", "<file>"],
    "out_dir": ["<dir>/run", "<file>", "<file>/run"],
    "lr_gen": [1e-2, 1e40, 0.0], "lr_fake": [1e-2, 1e40, 0.0],
    "step_grid": [[0.0], [0.0, 0.5], [0.0, 0.25, 0.5, 0.75], [0.5],
                  [0.0, 1.0], [0.0, 0.5, 0.4]],
    "observer_mode": [True],
}
TEACHER_VALUES = {
    "iterations": [1, 3, 0, 2.5], "batch": [1, 8, 0], "lr": [1e-2, 0.0, 1e300],
    "p_uncond": [0.5, 0.0, 1.0], "seed": [3, -1],
    "data": ["gmm8", "<line>", "<missing>"],
    "out": ["sub/t.ckpt", "", "<dir>", "<file>/t.ckpt", "l.csv"],
    "log": ["l.csv", "logs/l.csv", "t.ckpt", "<dir>", "t.ckpt/l.csv"],
    "lr_final": [1e-5, 1.0, 0.0], "ema_decay": [0.0, 0.9, 2.0],
}


_DROP = object()

# entries of a run directory, each pre-created as the wrong kind: a file
# where a directory goes, else a directory
LAYOUT = ["samples", "checkpoints", "config_snapshot.json", "metrics.csv",
          "manifest.json", "diagnostic_dump.json", "observer_probe.csv",
          "samples/iter_000002.csv", "checkpoints/generator.ckpt",
          "checkpoints/fake.ckpt", "checkpoints/disc.ckpt"]


def _edits(table: dict, keep=None):
    """Up to three edits, each a key set to one of its values or an odd one,
    or dropped; keep is never dropped or null."""
    def edit(key):
        odd = [v for v in _ODD if key != keep or v is not None]
        values = st.sampled_from(table[key] + odd)
        if key != keep:
            values = values | st.just(_DROP)
        return values.map(lambda value: (key, value))
    return st.lists(st.sampled_from(sorted(table)).flatmap(edit), max_size=3)


class TestRunContractProperty:
    """Whatever a config's keys hold, the CLI exits 0, 2 or 3. Exit 2 writes
    nothing. A run's exit 3 leaves a dump and a manifest, and its exit 0 a
    snapshot that re-runs to the same metrics.csv bytes; a teacher's exit 3
    leaves a dump in --out and no checkpoint, and its exit 0 one at out. A
    run directory entry of the wrong kind that the run writes exits 2."""

    def test_tables_are_covered(self):
        assert set(RUN_VALUES) == set(RUN_KEYS)
        assert set(TEACHER_VALUES) == set(TEACHER_KEYS)

    @staticmethod
    def materialize(raw: dict, root: Path) -> dict:
        (root / "dir").mkdir()
        (root / "file").write_text("not a checkpoint or spec")
        MixtureSpec(dim=1, label_count=1, components=[Component(
            0, np.array([0.0]), np.array([1.0]), 1.0)]).save(root / "line.json")
        paths = {"<dir>": root / "dir", "<file>": root / "file",
                 "<line>": root / "line.json", "<missing>": root / "missing"}

        def resolve(v):
            if isinstance(v, str) and v.startswith("<"):
                head, _, tail = v.partition(">")
                return str(paths[head + ">"]) + tail
            return v
        return {k: resolve(v) for k, v in raw.items()}

    @staticmethod
    def apply(base: dict, edits) -> dict:
        raw = dict(base)
        for key, value in edits:
            if value is _DROP:
                raw.pop(key, None)
            else:
                raw[key] = value
        return raw

    # half the examples pre-create a wrong entry, and most of those exit 2;
    # 500 examples leave some 80 that exit 0
    @settings(max_examples=500, deadline=None)
    @given(edits=_edits(RUN_VALUES, keep="teacher"), cli_out=st.booleans(),
           wrong=st.none() | st.sampled_from(LAYOUT))
    @example(edits=[("lr_fake", 1e40)], cli_out=True, wrong=None)  # exit 3
    @example(edits=[("seed", 1), ("eval_ref_n", 4)], cli_out=False,
             wrong=None)
    @example(edits=[("lr_fake", 1e40)], cli_out=True,
             wrong="diagnostic_dump.json")
    def test_run(self, tiny_teacher_ckpt, edits, cli_out, wrong):
        base = small_cfg(tiny_teacher_ckpt, iterations=3, eval_every=2,
                         eval_n=8, batch=8, ttur_ratio=1)
        # a relative out_dir lands in root, where tree(root) sees it
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            root = Path(tmp)
            raw = self.materialize(self.apply(base, edits), root)
            path = root / "cfg.json"
            path.write_text(json.dumps(raw))
            argv = ["run", str(path)]
            if cli_out:
                run_dir = root / "out"
                argv += ["--out", str(run_dir)]
            elif isinstance(raw.get("out_dir"), str):
                run_dir = Path(raw["out_dir"])
            else:
                run_dir = root / "cfg_run"
            if wrong is not None:
                entry = run_dir / wrong
                with contextlib.suppress(OSError):  # a run_dir under a file
                    entry.parent.mkdir(parents=True, exist_ok=True)
                    if wrong in ("samples", "checkpoints"):
                        entry.write_text("")
                    else:
                        entry.mkdir()
            before = tree(root)
            # overflow warnings and the variance clamp's are expected here
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli_main(argv)
                event(f"exit {code}")
                assert code in (0, 2, 3)
                if code == 2:
                    assert tree(root) == before
                elif code == 3:
                    assert (run_dir / "diagnostic_dump.json").is_file()
                    assert (run_dir / "manifest.json").is_file()
                else:
                    again = root / "again"
                    assert cli_main(["run", str(run_dir / "config_snapshot.json"),
                                     "--out", str(again)]) == 0
                    assert ((again / "metrics.csv").read_bytes()
                            == (run_dir / "metrics.csv").read_bytes())

    @settings(max_examples=200, deadline=None)
    @given(edits=_edits(TEACHER_VALUES))
    @example(edits=[("lr", 1e300)])  # exit 3
    def test_train_teacher(self, edits):
        base = {**TEACHER_CFG, "iterations": 2, "batch": 8}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            raw = self.materialize(self.apply(base, edits), root)
            path = root / "teacher.json"
            path.write_text(json.dumps(raw))
            out_dir = root / "out"
            before = tree(root)
            with np.errstate(all="ignore"):
                code = cli_main(["train-teacher", str(path), "--out",
                                 str(out_dir)])
            event(f"exit {code}")
            assert code in (0, 2, 3)
            if code == 2:
                assert tree(root) == before
            elif code == 3:
                assert not list(root.rglob("*.ckpt"))
                dump = json.loads((out_dir / "diagnostic_dump.json")
                                  .read_text())
                assert dump["network"] == "teacher"
                assert dump["iteration"] >= 1
            else:
                out = raw.get("out", TEACHER_KEYS["out"].default)
                assert load_params(out_dir / out).config.dim == 2
