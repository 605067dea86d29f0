"""The study scripts under scripts/, run end to end at tiny sizes."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sbergsma import (
    ReferenceDistribution,
    linear_chain,
    monte_carlo_null,
    row_standardize,
    theta_sweep,
)
from sbergsma.exceptions import InvalidParameterError, SizeError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name] + argv)
    module.main()


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_run_null_study(tmp_path, monkeypatch):
    _run_script("run_null_study", [
        "--R", "4", "--T", "12", "--reps", "60", "--families", "normal,uniform",
        "--K", "60", "--grid", "800", "--seed", "3", "--threads", "2",
        "--outdir", str(tmp_path),
    ], monkeypatch)
    W = row_standardize(linear_chain(4))
    for fam in ("normal", "uniform"):
        got = [float(r["sample"]) for r in _csv_rows(tmp_path / f"null_{fam}.csv")]
        want = monte_carlo_null(ReferenceDistribution(fam), 12, W, reps=60, seed=3)
        assert np.array_equal(got, want.samples)
    assert len(_csv_rows(tmp_path / "null_asymptotic.csv")) == 60
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["pairwise_ks"]) == {"normal|uniform"}
    assert 0.0 <= summary["ks_asym_vs_mc"] <= 1.0
    # each CSV records the run's configuration; the asymptotic one adds its diagnostics
    metas = [json.loads((tmp_path / name).read_text().splitlines()[0][len("# meta: "):])
             for name in ("null_normal.csv", "null_asymptotic.csv")]
    assert metas[0] == {"config": summary["config"]}
    assert metas[1].pop("config") == summary["config"]
    assert set(metas[1]) == {"weights_kept", "remainder_variance", "table_tail_mass"}
    # the thread count and the directory change no value
    assert summary["config"]["seed"] == 3
    assert not {"threads", "outdir"} & set(summary["config"])


def test_run_theta_sweep(tmp_path, monkeypatch):
    _run_script("run_theta_sweep", [
        "--R", "4", "--T", "12", "--reps", "40", "--thetas", "0,0.5",
        "--seed", "5", "--outdir", str(tmp_path),
    ], monkeypatch)
    W = row_standardize(linear_chain(4))
    for model in ("SAR", "SMA"):
        rows = _csv_rows(tmp_path / f"sweep_{model.lower()}.csv")
        want = theta_sweep(model, W, [0.0, 0.5], 12, reps=40, seed=5)
        assert [float(r["theta"]) for r in rows] == [0.0, 0.5]
        for row in rows:
            mean, sd, _, _ = want.summaries[float(row["theta"])]
            assert float(row["mean"]) == mean and float(row["sd"]) == sd
        with open(tmp_path / f"sweep_{model.lower()}.csv") as fh:
            config = json.loads(fh.readline()[len("# meta: "):])["config"]
        assert config["seed"] == 5 and "outdir" not in config


def test_run_theta_sweep_thetas_that_do_not_parse_are_usage_errors(
    tmp_path, monkeypatch, capsys
):
    with pytest.raises(SystemExit) as exc:
        _run_script("run_theta_sweep", ["--thetas", "0,abc", "--outdir", str(tmp_path)],
                    monkeypatch)
    assert exc.value.code == 2
    assert "argument --thetas" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name,flag,value,message", [
    ("run_null_study", "--seed", "-1", "must be at least 0, got -1"),
    ("run_theta_sweep", "--seed", "-1", "must be at least 0, got -1"),
    # a thread count below 1 used to end in an InvalidParameterError traceback
    ("run_null_study", "--threads", "0", "must be at least 1, got 0"),
    # and these in an EmptyNullError, SampleSizeError, SizeError or
    # InvalidParameterError traceback, after --outdir was made
    *[("run_null_study", flag, "0", "must be at least 1, got 0")
      for flag in ("--reps", "--R", "--K")],
    *[("run_theta_sweep", flag, "0", "must be at least 1, got 0") for flag in ("--reps", "--R")],
])
def test_scripts_reject_out_of_range_counts(name, flag, value, message, tmp_path,
                                            monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        _run_script(name, [flag, value, "--outdir", str(tmp_path / "out")], monkeypatch)
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,argv,error", [
    # K above the grid fails in the asymptotic null, after every Monte Carlo null
    ("run_null_study", ["--R", "4", "--T", "12", "--reps", "20", "--families", "normal",
                        "--K", "60", "--grid", "50", "--threads", "1"], InvalidParameterError),
    ("run_theta_sweep", ["--R", "1", "--T", "12", "--reps", "20", "--thetas", "0"], SizeError),
])
def test_scripts_make_no_outdir_when_the_library_rejects_a_size(name, argv, error, tmp_path,
                                                                 monkeypatch):
    with pytest.raises(error):
        _run_script(name, argv + ["--outdir", str(tmp_path / "out")], monkeypatch)
    assert not (tmp_path / "out").exists()
