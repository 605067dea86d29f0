"""CSV round trips, parse errors and the command-line interface."""

import codecs
import csv
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from sbergsma import ProximityMatrix, SpatialPanel, inverse_distance, linear_chain, sb_statistic
from sbergsma.cli import main
from sbergsma.exceptions import (
    DimensionMismatchError,
    DuplicateLabelError,
    NonIntegerError,
    NonNumericError,
    OutputPathError,
    ParseError,
    RaggedRowError,
    SelfLoopError,
)
from sbergsma.io import (
    load_panel,
    load_weights,
    save_acf_table,
    save_panel,
    save_weights,
)
from sbergsma.rng import stream
from sbergsma.weights import row_standardize


# -- file formats ------------------------------------------------------------

def test_panel_round_trip_lossless(tmp_path):
    rng = stream(71)
    panel = SpatialPanel(rng.standard_normal((12, 4)) * 1e-7, ("a", "b", "c", "d"))
    path = str(tmp_path / "panel.csv")
    save_panel(path, panel, meta={"purpose": "round trip"})
    loaded = load_panel(path)
    assert loaded.region_labels == panel.region_labels
    assert np.array_equal(loaded.data, panel.data)


def test_weights_round_trip_lossless(tmp_path):
    W = row_standardize(linear_chain(5))
    path = str(tmp_path / "w.csv")
    save_weights(path, W, meta={"kind": "chain"})
    loaded = load_weights(path)
    assert np.array_equal(loaded.weights, W.weights)


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("# meta: {}\nr1,r2\n\n1,2\n# trailing note\n3,4\n5,6\n")
    panel = load_panel(str(path))
    assert panel.data.shape == (3, 2)
    assert panel.region_labels == ("r1", "r2")


def test_panel_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3\n")
    with pytest.raises(RaggedRowError, match="row 3"):
        load_panel(str(bad))
    bad.write_text("a,b\n1,\n")
    with pytest.raises(ParseError, match="row 2, column 2"):
        load_panel(str(bad))
    bad.write_text("a,b\n1,x\n")
    with pytest.raises(NonNumericError, match="'x'"):
        load_panel(str(bad))
    bad.write_text("# only a comment\n")
    with pytest.raises(ParseError, match="no data"):
        load_panel(str(bad))


def test_dense_weight_errors(tmp_path):
    bad = tmp_path / "w.csv"
    bad.write_text("0,1\n1,0\n0,1\n")
    with pytest.raises(DimensionMismatchError):
        load_weights(str(bad))
    bad.write_text("0,1\n1,0,1\n")
    with pytest.raises(RaggedRowError, match="row 2"):
        load_weights(str(bad))


@pytest.mark.parametrize("source", ["dense", "edges", "ProximityMatrix"])
def test_nonzero_diagonal_is_one_error_from_every_source(source, tmp_path):
    # every source of W goes through ProximityMatrix's one diagonal check
    path = tmp_path / "w.csv"
    with pytest.raises(SelfLoopError, match=r"w\[2,2\]"):
        if source == "dense":
            path.write_text("0,1,0\n1,1,1\n0,1,0\n")
            load_weights(str(path))
        elif source == "edges":
            path.write_text("1,2\n2,2\n2,3\n")
            load_weights(str(path), "edges")
        else:
            ProximityMatrix(np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]))


def test_edge_list_rejects_fractional_index(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("1,2\n1.7,2\n")
    with pytest.raises(NonIntegerError, match="'1.7' at row 2, column 1"):
        load_weights(str(edges), "edges")


def test_panel_header_rejects_duplicate_labels(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("x,x,y\n1,2,3\n4,5,6\n7,8,9\n")
    with pytest.raises(DuplicateLabelError, match="row 1: duplicate region label 'x'"):
        load_panel(str(path))


def test_edge_list_matches_builtin_chain(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("1,2\n2,3\n")
    W = load_weights(str(path), kind="edges")
    assert np.array_equal(W.weights, linear_chain(3).weights)
    W4 = load_weights(str(path), kind="edges", n_regions=4)
    assert W4.n_regions == 4


def test_coords_with_header(tmp_path):
    path = tmp_path / "coords.csv"
    path.write_text("name,lon,lat\np1,0,0\np2,0,2\n")
    W = load_weights(str(path), kind="coords")
    assert W.weights[0, 1] == pytest.approx(0.5)
    assert W.region_labels == ("p1", "p2")


@pytest.mark.parametrize("text,row", [("A,0,x\nB,1,0\nC,2,1\n", 1),
                                      ("name,lon,lat\nA,0,0\nB,x,1\n", 3)])
def test_coords_typo_is_not_a_header(text, row, tmp_path):
    # only a first row whose x and y are both non-numeric is skipped as a header
    path = tmp_path / "coords.csv"
    path.write_text(text)
    with pytest.raises(NonNumericError, match=f"row {row}"):
        load_weights(str(path), kind="coords")


def test_acf_table_label_with_comma_reads_back(tmp_path):
    path = tmp_path / "acf.csv"
    table = {"Pune, city": [1.0, 0.25], "Mumbai": [1.0, -0.5], "Thane": [1.0, 0.0]}
    save_acf_table(str(path), table, 0.4)
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["lag", "Pune, city", "Mumbai", "Thane"]
    assert rows[1:] == [["0", "1", "1", "1"], ["1", "0.25", "-0.5", "0"]]


@pytest.mark.parametrize("kind,text", [("panel", "a,b\n1,2\n3,5\n4,0\n"), ("dense", "0,1\n1,0\n"),
                                       ("edges", "1,2\n"), ("coords", "a,0,0\nb,0,1\n")],
                         ids=["panel", "dense", "edges", "coords"])
def test_loaders_skip_a_utf8_byte_order_mark(kind, text, tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one: the panel's first label
    # read '\ufeffa', and a W file failed on the cell '\ufeff0' or the label
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    if kind == "panel":
        got, want = load_panel(str(marked)), load_panel(str(plain))
        assert got.region_labels == want.region_labels == ("a", "b")
        assert np.array_equal(got.data, want.data)
    else:
        got, want = load_weights(str(marked), kind), load_weights(str(plain), kind)
        assert got.region_labels == want.region_labels
        assert np.array_equal(got.weights, want.weights)


# -- CLI ---------------------------------------------------------------------

@pytest.fixture
def panel_file(tmp_path):
    base = np.array([0.3, 1.9, -0.5, 2.2, 0.0, 1.1])
    path = str(tmp_path / "panel.csv")
    save_panel(path, SpatialPanel(np.column_stack([base] * 3)))
    return path


def test_cli_compute_identical_columns(panel_file, capsys):
    rc = main(["compute", panel_file, "--linear-chain", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)
    assert payload["s0"] == pytest.approx(3.0)
    assert payload["meta"]["version"]
    assert panel_file in payload["meta"]["input_hashes"]


@pytest.mark.parametrize("flag,s0,standardized", [([], 3.0, True),
                                                   (["--no-standardize"], 4.0, False)])
def test_cli_compute_writes_s0_and_standardization_of_w(flag, s0, standardized, panel_file,
                                                       capsys):
    # the raw chain of 3 regions has weight sum 4; its row-standardized form, 3
    assert main(["compute", panel_file, "--linear-chain", "3", *flag]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["s0"] == s0
    # W is row-standardized exactly when the configuration says so: no second copy
    assert "standardized_w" not in payload
    assert payload["meta"]["config"]["standardize"] is standardized


def test_cli_compute_overflow_is_one_json_line(tmp_path):
    # numpy's overflow warnings used to come before the error line
    panel = tmp_path / "big.csv"
    panel.write_text("A,B\n1e308,1\n-1e308,2\n1e308,0\n-1e308,5\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    run = subprocess.run([sys.executable, "-m", "sbergsma.cli", "compute", str(panel),
                          "--linear-chain", "2"],
                         env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout == ""
    line, = run.stderr.splitlines()
    assert json.loads(line)["error_category"] == "NonFiniteError"


@pytest.mark.parametrize("args", [
    ["spectrum", "--dist", "normal", "--K", "100", "--grid", "2000"],
    ["spectrum", "--dist", "exponential", "--K", "100", "--grid", "2000"],
    ["test", "{panel}", "--linear-chain", "14", "--null", "asym", "--reps", "10000",
     "--cutoff-sims", "2000", "--seed", "3"],
], ids=["normal", "exponential", "test-asym"])
def test_cli_spectrum_same_bytes_on_one_and_two_blas_threads(args, tmp_path):
    # a dense eigvalsh of the grid kernel differed in 100 of 100 normal rows;
    # the asymptotic test reads the normal spectrum through its p-value
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    panel = tmp_path / "panel.csv"
    save_panel(str(panel), SpatialPanel(stream(3).standard_normal((50, 14))))
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-m", "sbergsma.cli",
                        *(a.format(panel=panel) for a in args), "-o", str(out)],
                       env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_test_rerun_byte_identical(tmp_path, capsys):
    rng = stream(3)
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(rng.standard_normal((20, 3))))
    out = tmp_path / "report.json"
    argv = [
        "test", panel_path, "--linear-chain", "3", "--reps", "300",
        "--cutoff-sims", "500", "--seed", "11", "--output", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    payload = json.loads(first)
    assert 0 < payload["p_value"] <= 1
    assert payload["meta"]["config"]["reps"] == 300


def test_cli_simulate_then_compute_matches_library(tmp_path, capsys):
    sim = str(tmp_path / "sim.csv")
    rc = main([
        "simulate", "--model", "sma", "--theta", "0.5", "--T", "30",
        "--linear-chain", "4", "--seed", "9", "--output", sim,
    ])
    assert rc == 0
    assert main(["compute", sim, "--linear-chain", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)

    from sbergsma import DependenceSpec, simulate_panel

    W = row_standardize(linear_chain(4))
    panel = simulate_panel(DependenceSpec("SMA", 0.5, W), T=30, seed=9)
    expect = sb_statistic(panel, W).value
    assert payload["value"] == pytest.approx(expect, rel=1e-12)


def test_cli_null_writes_samples(tmp_path):
    out = tmp_path / "null.csv"
    rc = main([
        "null", "--R", "3", "--T", "10", "--reps", "50",
        "--linear-chain", "3", "--seed", "4", "--output", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# meta:")
    assert lines[1] == "sample"
    assert len(lines) == 52


def test_cli_null_rejects_w_of_another_size(monkeypatch, tmp_path, capsys):
    import sbergsma.nulldist as nulldist

    def no_draw(*args, **kw):
        raise AssertionError("replicates were simulated")

    monkeypatch.setattr(nulldist, "sb_replicates", no_draw)
    out = tmp_path / "null.csv"
    assert main(["null", "--R", "5", "--T", "10", "--linear-chain", "4", "--seed", "1",
                 "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error_category": "DimensionMismatchError",
                                                  "message": "W has 4 regions, R = 5"}
    assert not out.exists()


def test_cli_sweep_rows_in_the_order_of_thetas(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "sma", "--thetas", "0.5,0,0.25", "--T", "10",
                 "--reps", "20", "--linear-chain", "3", "--seed", "1", "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [float(r["theta"]) for r in rows] == [0.5, 0.0, 0.25]


def test_cli_weights_edges(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("1,2\n2,3\n")
    out = tmp_path / "w.csv"
    rc = main(["weights", "--weights", str(edges), "--weights-kind", "edges",
               "--output", str(out)])
    assert rc == 0
    W = load_weights(str(out))
    assert np.array_equal(W.weights, linear_chain(3).weights)


def test_cli_prewhiten(tmp_path):
    rng = stream(6)
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(rng.standard_normal((40, 3))))
    out = tmp_path / "resid.csv"
    acf_out = tmp_path / "acf.csv"
    rc = main([
        "prewhiten", panel_path, "--ar", "2", "--output", str(out),
        "--acf-output", str(acf_out), "--acf-lags", "5",
    ])
    assert rc == 0
    resid = load_panel(str(out))
    assert resid.data.shape == (38, 3)
    acf_lines = acf_out.read_text().splitlines()
    assert acf_lines[1] == "lag,R1,R2,R3"
    assert len(acf_lines) == 8


def test_cli_spectrum(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main([
        "spectrum", "--dist", "uniform", "--K", "60", "--grid", "800",
        "--output", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "k,lambda"
    first = float(lines[2].split(",")[1])
    assert first == pytest.approx(1 / np.pi**2, rel=0.01)


def test_cli_prewhiten_failure_writes_neither_file(tmp_path, capsys):
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(stream(6).standard_normal((20, 3))))
    out, acf_out = tmp_path / "r.csv", tmp_path / "a.csv"
    rc = main(["prewhiten", panel_path, "--ar", "1", "--acf-lags", "50",
               "--acf-output", str(acf_out), "-o", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error_category"] == "LagError"
    assert not out.exists() and not acf_out.exists()


@pytest.mark.parametrize("kind,category", [("directory", "IsADirectoryError"),
                                           ("binary", "ParseError"),
                                           ("binary-after-bom", "ParseError")])
def test_cli_unreadable_panel_is_a_json_error(kind, category, tmp_path, capsys):
    path = tmp_path / "panel"
    if kind == "directory":
        path.mkdir()
    else:
        # the byte-order mark must not shift the line of the bad byte
        bom = codecs.BOM_UTF8 if kind == "binary-after-bom" else b""
        path.write_bytes(bom + b"a,b,c\n1,2,3\n\xff\xfe,0,1\n")
    assert main(["compute", str(path), "--linear-chain", "3"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_category"] == category
    if kind != "directory":
        assert f"{path}: line 3 is not UTF-8" in err["message"]


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "absent.csv"), "--linear-chain", "3"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_category"] == "FileNotFound"
    # missing --output for a file-producing subcommand is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["null", "--R", "3", "--T", "10", "--linear-chain", "3"])
    assert exc.value.code == 2
    assert "the following arguments are required: --output/-o" in capsys.readouterr().err


def test_cli_failure_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--model", "sar", "--theta", "1.5", "--T", "20",
        "--linear-chain", "4", "--seed", "0", "--output", str(out),
    ])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert "theta" in err["message"]


def test_cli_test_empty_edge_list_fails(tmp_path, capsys):
    # an all-zero W used to give "sb": NaN and the smallest p-value
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(stream(4).standard_normal((20, 4))))
    edges = tmp_path / "edges.csv"
    edges.write_text("")
    out = tmp_path / "report.json"
    rc = main([
        "test", panel_path, "--weights", str(edges), "--weights-kind", "edges",
        "--regions", "4", "--no-standardize", "--reps", "50", "--cutoff", "0.2",
        "--seed", "1", "--output", str(out),
    ])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error_category"] == "IsolatedRegionError"


def test_cli_test_threads_reach_every_simulation(monkeypatch, tmp_path):
    import sbergsma.cli as cli
    import sbergsma.inference as inference

    seen = {}

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kw):
            seen[name] = kw["n_jobs"]
            return real(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)

    recording(inference, "monte_carlo_null")
    recording(inference, "bootstrap_ci")
    recording(cli, "independence_rho_quantile")
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(stream(4).standard_normal((20, 4))))
    assert main([
        "test", panel_path, "--linear-chain", "4", "--reps", "50", "--bootstrap", "200",
        "--cutoff-sims", "50", "--seed", "1", "--threads", "2",
        "-o", str(tmp_path / "report.json"),
    ]) == 0
    assert seen == {"monte_carlo_null": 2, "bootstrap_ci": 2, "independence_rho_quantile": 2}


def _same_bytes_on_one_and_two_threads(argv, monkeypatch, tmp_path):
    """Run argv at --threads 1 and 2, writing two names in one directory, on
    two usable cores; the files must be byte-identical."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        assert main(argv + ["--threads", threads, "-o", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_sweep_same_on_one_and_two_threads(monkeypatch, tmp_path):
    # 450 replicates are three ranges, so the second thread runs
    _same_bytes_on_one_and_two_threads(
        ["sweep", "--model", "sar", "--thetas", "0,0.5", "--T", "10", "--reps", "450",
         "--linear-chain", "3", "--seed", "3"], monkeypatch, tmp_path)


def test_cli_null_same_file_on_one_and_two_threads(monkeypatch, tmp_path):
    # 20 replicates on 2 threads are two ranges of 10
    _same_bytes_on_one_and_two_threads(
        ["null", "--R", "6", "--T", "30", "--linear-chain", "6", "--reps", "20",
         "--seed", "1"], monkeypatch, tmp_path)


def test_cli_test_same_file_on_one_and_two_threads(monkeypatch, tmp_path):
    # 500 replicates are three ranges; the bootstrap and the pair cutoff are threaded too
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(stream(4).standard_normal((20, 4))))
    _same_bytes_on_one_and_two_threads(
        ["test", panel_path, "--linear-chain", "4", "--reps", "500", "--bootstrap", "200",
         "--cutoff-sims", "500", "--seed", "1"], monkeypatch, tmp_path)


_COORDS = {"a": (0.0, 0.0), "b": (0.0, 1.0), "c": (2.0, 0.0)}


def _coords_argv(command, tmp_path, labels):
    """argv running ``command`` on an (a, b, c) panel against a coordinate
    file that lists ``labels`` in that order."""
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(stream(8).standard_normal((20, 3)), ("a", "b", "c")))
    coords = tmp_path / "coords.csv"
    coords.write_text("label,x,y\n" + "".join(
        f"{lb},{_COORDS[lb][0]},{_COORDS[lb][1]}\n" for lb in labels))
    argv = [command, panel_path, "--weights", str(coords), "--weights-kind", "coords",
            "-o", str(tmp_path / "out.json")]
    if command == "test":
        argv += ["--reps", "50", "--cutoff", "0.2", "--seed", "1"]
    return argv


@pytest.mark.parametrize("command", ["compute", "test"])
@pytest.mark.parametrize("labels,position", [(("a", "c", "b"), 2), (("a", "b"), 3)])
def test_cli_coords_labels_must_be_the_panel_header(
    command, labels, position, tmp_path, capsys
):
    # a column-order mismatch used to pair the wrong regions silently
    assert main(_coords_argv(command, tmp_path, labels)) == 1
    assert not (tmp_path / "out.json").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error_category"] == "LabelMismatchError"
    assert f"region {position} is" in err["message"]


def test_cli_coords_reject_a_repeated_label(tmp_path, capsys):
    # simulate wrote a panel headed A,A,B, which compute then refused
    coords, out = tmp_path / "c.csv", tmp_path / "panel.csv"
    coords.write_text("A,0,0\nA,1,0\nB,0,1\n")
    assert main(["simulate", "--model", "sma", "--theta", "0.5", "--weights", str(coords),
                 "--weights-kind", "coords", "--seed", "1", "-o", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error_category": "DuplicateLabelError",
                   "message": "row 2: duplicate region label 'A'"}
    assert not out.exists()


def test_cli_panel_rejects_a_blank_label(tmp_path, capsys):
    # compute used to write "region_labels": ["A", "", "C"]
    panel = tmp_path / "p.csv"
    panel.write_text("A,,C\n1,2,3\n2,1,5\n3,3,1\n4,0,2\n")
    assert main(["compute", str(panel), "--linear-chain", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error_category": "ParseError",
                               "message": "row 1, column 2: blank region label"}


@pytest.mark.parametrize("command", [["weights"],
                                     ["simulate", "--model", "sma", "--theta", "0.5",
                                      "--seed", "1"]])
def test_cli_coords_reject_a_blank_label(command, tmp_path, capsys):
    # weights exited 0, and simulate wrote a panel headed A,,C
    coords, out = tmp_path / "c.csv", tmp_path / "out.csv"
    coords.write_text("label,x,y\nA,0,0\n,1,0\nC,2,0\n")
    assert main(command + ["--weights", str(coords), "--weights-kind", "coords",
                           "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error_category": "ParseError",
                                                  "message": "row 3: blank region label"}
    assert not out.exists()


@pytest.mark.parametrize("command", ["compute", "test"])
def test_cli_coords_labels_in_panel_order_pass(command, tmp_path):
    assert main(_coords_argv(command, tmp_path, ("a", "b", "c"))) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    panel = load_panel(str(tmp_path / "p.csv"))
    W = row_standardize(inverse_distance(list(_COORDS.values()), ("a", "b", "c")))
    value = payload["sb" if command == "test" else "value"]
    assert value == sb_statistic(panel, W).value


def test_cli_test_flags_are_pair_rho_above_cutoff(tmp_path):
    rng = stream(21)
    base = rng.standard_normal(30)
    data = np.column_stack([base, base + 0.3 * rng.standard_normal(30),
                            rng.standard_normal((30, 2))])
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(data))
    out = tmp_path / "report.json"
    assert main([
        "test", panel_path, "--linear-chain", "4", "--reps", "100",
        "--cutoff-sims", "500", "--seed", "2", "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    rho, flags = np.array(payload["pair_rho"]), np.array(payload["pairwise_flags"])
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(flags[off], (rho > payload["pairwise_cutoff"])[off])
    assert not flags.diagonal().any()
    assert flags[off].any() and not flags[off].all()


_VALID_ARGV = {
    "compute": ["compute", "{panel}", "--linear-chain", "3"],
    "test": ["test", "{panel}", "--linear-chain", "3", "--reps", "10",
             "--cutoff", "0.2", "-o", "{out}"],
    "null": ["null", "--R", "3", "--T", "10", "--linear-chain", "3",
             "--reps", "10", "-o", "{out}"],
    "simulate": ["simulate", "--model", "sma", "--theta", "0.5", "--T", "10",
                 "--linear-chain", "3", "-o", "{out}"],
    "sweep": ["sweep", "--model", "sma", "--thetas", "0", "--T", "10",
              "--reps", "10", "--linear-chain", "3", "-o", "{out}"],
    "prewhiten": ["prewhiten", "{panel}", "--ar", "1", "-o", "{out}"],
    "weights": ["weights", "--linear-chain", "3", "-o", "{out}"],
    "spectrum": ["spectrum", "--dist", "uniform", "--K", "60", "--grid", "800",
                 "-o", "{out}"],
}


@pytest.mark.parametrize(
    "command,flag",
    [(c, "--threads")
     for c in ("compute", "simulate", "prewhiten", "weights", "spectrum")]
    + [(c, "--seed") for c in ("compute", "prewhiten", "weights", "spectrum")]
    # F is a family's standard member: no command takes a location or scale
    + [(c, f) for c in ("test", "null", "simulate", "sweep", "spectrum")
       for f in ("--loc", "--scale")]
    # the test is upper-tailed only
    + [("test", "--alternative")],
)
def test_cli_rejects_flags_the_command_does_not_read(
    command, flag, panel_file, tmp_path, capsys
):
    argv = [a.format(panel=panel_file, out=tmp_path / "out.csv")
            for a in _VALID_ARGV[command]]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,category",
    [
        (["test", "{panel}", "--linear-chain", "4", "--null", "asym", "--reps", "0",
          "--cutoff", "0.2"], "EmptyNullError"),
        (["test", "{panel}", "--linear-chain", "4", "--reps", "50", "--bootstrap", "0",
          "--cutoff", "0.2"], "InvalidParameterError"),
        # without --cutoff the pair cutoff is simulated too, after every check
        *[(["test", "{panel}", "--linear-chain", "4", "--null", null, "--reps", "0"],
           "EmptyNullError") for null in ("mc", "asym")],
        (["test", "{panel}", "--linear-chain", "4", "--reps", "50", "--bootstrap", "0"],
         "InvalidParameterError"),
        # K and the grid are checked before the bootstrap resamples
        *[(["test", "{panel}", "--linear-chain", "4", "--null", "asym", *sizes,
            "--bootstrap", "2000"], "InvalidParameterError")
          for sizes in (["--K", "0"], ["--grid", "50"], ["--K", "60", "--grid", "0"])],
        (["sweep", "--model", "sar", "--reps", "0", "--linear-chain", "4"],
         "SampleSizeError"),
        # unchecked, T = 1 ends in a ZeroDivisionError traceback and T = 2 in a
        # DegenerateRegionError after the whole simulation; T < 3 is the
        # LengthError a panel file with fewer than 3 rows raises
        *[(["null", "--R", "4", "--T", T, "--linear-chain", "4"],
           "LengthError") for T in ("1", "2")],
        *[(["sweep", "--model", "sar", "--T", T, "--linear-chain", "4"],
           "LengthError") for T in ("1", "2")],
        (["simulate", "--model", "sma", "--theta", "0.5", "--T", "2",
          "--linear-chain", "4"], "LengthError"),
        (["sweep", "--model", "sar", "--thetas", "0,0.5,0.5", "--linear-chain", "4"],
         "InvalidParameterError"),
    ],
)
def test_cli_size_arguments_rejected_before_any_simulation(
    argv, category, monkeypatch, tmp_path, capsys
):
    import sbergsma.depmodels as depmodels
    import sbergsma.inference as inference
    import sbergsma.nulldist as nulldist

    def no_simulation(*args, **kw):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(inference, "monte_carlo_null", no_simulation)
    # nystrom_eigenvalues itself runs, so its K and grid checks can fail first,
    # but its eigensolve may not
    monkeypatch.setattr(nulldist, "_top_eigenvalues", no_simulation)
    monkeypatch.setattr(inference, "asymptotic_null_sample", no_simulation)
    # the bootstrap's S~_B values, and the pair cutoff's rho~ values
    monkeypatch.setattr(inference, "sb_values_batch", no_simulation)
    monkeypatch.setattr(inference, "pairwise_kappa", no_simulation)
    monkeypatch.setattr(depmodels, "sb_replicates", no_simulation)
    monkeypatch.setattr(nulldist, "sb_replicates", no_simulation)
    # the one panel simulate_panel draws
    monkeypatch.setattr(depmodels, "stream", no_simulation)
    panel_path = str(tmp_path / "p.csv")
    save_panel(panel_path, SpatialPanel(stream(4).standard_normal((20, 4))))
    out = tmp_path / "out"
    argv = [a.format(panel=panel_path) for a in argv]
    assert main(argv + ["--seed", "1", "-o", str(out)]) == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error_category"] == category


@pytest.mark.parametrize("thetas", ["0,abc", "0,,0.5", ""])
def test_cli_sweep_thetas_that_do_not_parse_are_usage_errors(thetas, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "sma", "--thetas", thetas, "--linear-chain", "3",
              "--seed", "1", "-o", str(out)])
    assert exc.value.code == 2
    assert "argument --thetas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        # the pair cutoff is simulated last, so its count is checked by the parser
        (["test", "{panel}", "--linear-chain", "3", "--cutoff-sims", "0"],
         "argument --cutoff-sims: must be at least 1, got 0"),
        # a NaN cutoff flagged no pair and wrote "cutoff": NaN, which is not JSON;
        # an unread NaN level was written the same way
        *[(["test", "{panel}", "--linear-chain", "3", flag, c],
           f"argument {flag}: must be finite, got {c}")
          for flag in ("--cutoff", "--level") for c in ("nan", "inf")],
        *[([c, *args, "--linear-chain", "3", "--threads", n],
           f"argument --threads: must be at least 1, got {n}")
          for c, args in (("test", ["{panel}"]), ("null", ["--R", "3", "--T", "10"]),
                          ("sweep", ["--model", "sma"]))
          for n in ("0", "-4")],
        # W is one of two flags on every subcommand that reads one
        *[([c, *args], "one of the arguments --weights --linear-chain is required")
          for c, args in (("compute", ["{panel}"]), ("test", ["{panel}"]),
                          ("null", ["--R", "3", "--T", "10"]),
                          ("simulate", ["--model", "sma", "--theta", "0.5"]),
                          ("sweep", ["--model", "sma"]), ("weights", []))],
        (["compute", "{panel}", "--linear-chain", "3", "--weights", "{panel}"],
         "argument --weights: not allowed with argument --linear-chain"),
        *[(["weights", "--linear-chain", "3", flag, "{panel}"], "unrecognized arguments")
          for flag in ("--coords", "--edges")],
        # a negative seed ended in a bare numpy ValueError, on test only after
        # the statistic and the bootstrap had run
        *[([c, *args, "--linear-chain", "3", "--seed", "-1"],
           "argument --seed: must be at least 0, got -1")
          for c, args in (("simulate", ["--model", "sma", "--theta", "0.5"]),
                          ("sweep", ["--model", "sma"]))],
        # a negative region count ended in numpy's "negative dimensions" error
        (["weights", "--weights", "{panel}", "--weights-kind", "edges", "--regions", "-3"],
         "argument --regions: must be at least 1, got -3"),
        # --regions sizes an edge list only; elsewhere it was ignored but
        # still recorded in the output's config
        *[(["weights", *args, "--regions", "99"],
           "argument --regions: only read with --weights-kind edges")
          for args in (["--weights", "{panel}"], ["--linear-chain", "3"],
                       ["--weights", "{panel}", "--weights-kind", "coords"],
                       ["--linear-chain", "3", "--weights-kind", "edges"])],
        # --weights-kind without a file was ignored but still recorded as read
        *[(["weights", "--linear-chain", "3", "--weights-kind", kind],
           "argument --weights-kind: only read with --weights")
          for kind in ("dense", "coords")],
        # so were test's flags that another mode reads
        *[(["test", "{panel}", "--linear-chain", "3", *args], message) for args, message in (
            (["--K", "3"], "argument --K: only read with --null asym"),
            (["--null", "mc", "--grid", "7"], "argument --grid: only read with --null asym"),
            (["--null", "asym", "--cutoff", "0.2", "--cutoff-sims", "5"],
             "argument --cutoff-sims: only read without --cutoff"),
            (["--level", "0.5"], "argument --level: only read with --bootstrap"),
            (["--null", "mc", "--K", "3", "--grid", "7", "--cutoff", "0.2",
              "--cutoff-sims", "5", "--level", "0.5"], "only read with --null asym"))],
        # --acf-lags sizes the ACF table only; without it it was ignored but recorded
        (["prewhiten", "{panel}", "--ar", "1", "--acf-lags", "5"],
         "argument --acf-lags: only read with --acf-output"),
        # --df is read by chi-square only; elsewhere it was recorded, and a
        # --df 1 (the old default) was accepted without a word
        *[(argv + ["--df", df], "argument --df: only read with --dist chi-square")
          for argv in (["null", "--R", "4", "--T", "10", "--linear-chain", "4",
                        "--dist", "normal"], ["spectrum"])
          for df in ("-7", "1")],
        # an AR order below 1 exited 1 as ShortSeriesError, after the panel was
        # loaded and hashed, and a negative lag count as LagError after every fit
        *[(["prewhiten", "{panel}", "--ar", p], f"argument --ar: must be at least 1, got {p}")
          for p in ("0", "-1")],
        (["prewhiten", "{panel}", "--acf-output", "{panel}.acf.csv", "--acf-lags", "-2"],
         "argument --acf-lags: must be at least 0, got -2"),
    ],
)
def test_cli_usage_errors(argv, message, panel_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [a.format(panel=panel_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"] * (argv[0] in ("test", "null")) + ["-o", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    # the ACF table replaced the residual panel
    (["prewhiten", "p.csv", "--ar", "1", "-o", "r.csv", "--acf-output", "r.csv"],
     "--acf-output"),
    (["prewhiten", "p.csv", "--ar", "1", "-o", "r.csv", "--acf-output", "./r.csv"],
     "--acf-output"),
    # the report replaced its own input, whose hash it then recorded
    (["compute", "p.csv", "--linear-chain", "3", "-o", "p.csv"], "--output"),
    (["test", "p.csv", "--linear-chain", "3", "--reps", "20", "--cutoff", "0.2",
      "--seed", "1", "-o", "p.csv"], "--output"),
    (["weights", "--weights", "w.csv", "-o", "w.csv"], "--output"),
], ids=["prewhiten", "prewhiten-dot", "compute", "test", "weights"])
def test_cli_output_must_not_replace_an_input_or_the_other_output(
    argv, name, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    save_panel("p.csv", SpatialPanel(stream(8).standard_normal((20, 3))))
    save_weights("w.csv", linear_chain(3))
    before = {f: f.read_bytes() for f in tmp_path.iterdir()}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {name}:" in capsys.readouterr().err
    assert {f: f.read_bytes() for f in tmp_path.iterdir()} == before


@pytest.mark.parametrize("kind,text", [("edges", "1,2\n2,3\n"),
                                       ("coords", "a,0,0\nb,0,1\nc,2,0\n")],
                         ids=["edges", "coords"])
def test_cli_weights_reads_w_like_every_other_subcommand(kind, text, tmp_path):
    src = tmp_path / f"{kind}.csv"
    src.write_text(text)
    out = tmp_path / "w.csv"
    assert main(["weights", "--weights", str(src), "--weights-kind", kind,
                 "-o", str(out)]) == 0
    meta = json.loads(out.read_text().splitlines()[0][len("# meta: "):])
    assert meta["config"]["weights_kind"] == kind
    assert meta["config"]["standardize"] is False
    assert np.array_equal(load_weights(str(out)).weights,
                          load_weights(str(src), kind).weights)


def test_cli_weights_kind_is_recorded_only_with_a_weights_file(tmp_path):
    dense, out = tmp_path / "dense.csv", tmp_path / "w.csv"
    dense.write_text("0,1,0\n1,0,1\n0,1,0\n")

    def config(argv):
        assert main(["weights", *argv, "-o", str(out)]) == 0
        return json.loads(out.read_text().splitlines()[0][len("# meta: "):])["config"]

    assert "weights_kind" not in config(["--linear-chain", "3"])
    assert config(["--weights", str(dense)])["weights_kind"] == "dense"


def test_cli_test_records_only_the_flags_it_reads(panel_file, tmp_path):
    out = tmp_path / "report.json"

    def config(*args):
        assert main(["test", panel_file, "--linear-chain", "3", "--reps", "20", "--seed", "1",
                     *args, "-o", str(out)]) == 0
        return json.loads(out.read_text())["meta"]["config"]

    mode_flags = ("K", "grid", "level", "cutoff_sims", "df")
    got = config("--cutoff", "0.2")
    assert not any(k in got for k in mode_flags)
    got = config("--null", "asym", "--bootstrap", "200", "--cutoff-sims", "50")
    assert [got[k] for k in mode_flags[:-1]] == [100, 2000, 0.95, 50]
    assert config("--cutoff", "0.2", "--dist", "chi-square")["df"] == 1.0


@pytest.mark.parametrize("null,diagnostics", [
    ("mc", set()), ("asym", {"weights_kept", "remainder_variance", "table_tail_mass"})])
def test_cli_test_records_each_input_once(null, diagnostics, tmp_path):
    panel_path, out = str(tmp_path / "p.csv"), tmp_path / "report.json"
    save_panel(panel_path, SpatialPanel(stream(3).standard_normal((20, 3))))
    assert main(["test", panel_path, "--linear-chain", "3", "--null", null, "--reps", "50",
                 "--bootstrap", "200", "--cutoff", "0.2", "--seed", "4",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    lo, hi = payload["ci"]
    assert lo <= hi
    assert set(payload["null"]) == diagnostics
    assert "seed" not in payload["meta"]
    assert payload["meta"]["config"]["seed"] == 4


def test_cli_records_acf_lags_only_with_an_acf_table_and_spectrum_sizes_always(tmp_path):
    panel_file, out, acf_out = (str(tmp_path / name) for name in ("p.csv", "out.csv", "acf.csv"))
    save_panel(panel_file, SpatialPanel(stream(6).standard_normal((40, 3))))

    def config(*argv):
        assert main([*argv, "-o", out]) == 0
        with open(out) as fh:
            return json.loads(fh.readline()[len("# meta: "):])["config"]

    assert "acf_lags" not in config("prewhiten", panel_file, "--ar", "1")
    assert config("prewhiten", panel_file, "--ar", "1", "--acf-output", acf_out)["acf_lags"] == 10
    got = config("spectrum", "--dist", "uniform")
    assert (got["K"], got["grid"]) == (100, 2000)


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_cli_config_records_no_thread_count_and_no_output_path(command, tmp_path):
    # neither changes a value, so the same run at another thread count or
    # under another name writes the same bytes
    panel_path, out, acf_out = (tmp_path / name for name in ("p.csv", "out", "acf.csv"))
    save_panel(str(panel_path), SpatialPanel(stream(6).standard_normal((40, 3))))
    argv = [a.format(panel=panel_path, out=out) for a in _VALID_ARGV[command]]
    threaded = ["--threads", "2", "--seed", "1"]
    extra = {"compute": ["-o", str(out)], "test": threaded, "null": threaded,
             "simulate": ["--seed", "1"], "sweep": threaded,
             "prewhiten": ["--acf-output", str(acf_out)]}
    assert main(argv + extra.get(command, [])) == 0
    for path in (out, acf_out) if command == "prewhiten" else (out,):
        text = path.read_text()
        if command in ("compute", "test"):
            meta = json.loads(text)["meta"]
        else:
            meta = json.loads(text.splitlines()[0][len("# meta: "):])
        assert meta["config"]
        assert not {"threads", "output", "acf_output"} & set(meta["config"])


@pytest.mark.parametrize(
    "argv,category",
    [
        (["weights", "--weights", "{w}", "-o", "{out}"], "NegativeWeightError"),
        # an infinite coordinate used to exit 0 with an all-zero row and column,
        # and a NaN one to fail with a message about W
        (["weights", "--weights", "{c}", "--weights-kind", "coords", "-o", "{out}"],
         "NonFiniteError"),
        (["weights", "--weights", "{n}", "--weights-kind", "coords", "-o", "{out}"],
         "NonFiniteError"),
        # I - theta W has condition 2.2e13 on the standardized chain
        (["simulate", "--model", "sar", "--theta", "0.9999999999999", "--linear-chain", "4",
          "--seed", "1", "-o", "{out}"], "SingularSystemError"),
    ],
)
def test_cli_weight_and_model_errors_are_json_errors(argv, category, tmp_path, capsys):
    w = tmp_path / "w.csv"
    w.write_text("0,1,1\n1,0,-1\n1,1,0\n")
    c = tmp_path / "c.csv"
    c.write_text("A,0,0\nB,1,0\nC,inf,0\n")
    n = tmp_path / "n.csv"
    n.write_text("A,0,0\nB,1,0\nC,0,nan\n")
    out = tmp_path / "out.csv"
    assert main([a.format(w=w, c=c, n=n, out=out) for a in argv]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_category"] == category
    if category == "NonFiniteError":
        assert err["message"].endswith("coordinates for region(s) C")
    assert not out.exists()


def test_cli_linear_chain_too_short_is_a_size_error(tmp_path, capsys):
    # a chain of 0 regions used to read as "no weight matrix given"
    out = tmp_path / "w.csv"
    assert main(["weights", "--linear-chain", "0", "-o", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error_category"] == "SizeError"
    assert not out.exists()


@pytest.mark.parametrize("target", ["fifo", "dir"])
@pytest.mark.parametrize("command", ["compute", "null", "prewhiten-acf"])
def test_cli_output_must_not_name_a_non_regular_file(command, target, panel_file, tmp_path,
                                                     capsys):
    path = tmp_path / target
    if target == "fifo":
        os.mkfifo(path)
    else:
        path.mkdir()
    argv = {
        "compute": ["compute", panel_file, "--linear-chain", "3", "-o", str(path)],
        "null": ["null", "--R", "3", "--T", "10", "--linear-chain", "3", "--reps", "10",
                 "--seed", "1", "-o", str(path)],
        "prewhiten-acf": ["prewhiten", panel_file, "--ar", "1", "-o",
                          str(tmp_path / "resid.csv"), "--acf-output", str(path)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "exists and is not a regular file" in capsys.readouterr().err
    mode = path.stat().st_mode
    assert stat.S_ISFIFO(mode) if target == "fifo" else stat.S_ISDIR(mode)
    assert not (tmp_path / "resid.csv").exists()


@pytest.mark.parametrize("command", ["null", "test", "prewhiten-acf"])
def test_cli_output_in_a_missing_directory_is_a_usage_error(command, panel_file, tmp_path,
                                                            capsys):
    # null used to simulate first and then fail with FileNotFound, and
    # prewhiten wrote its residual panel before the ACF table failed
    missing = str(tmp_path / "missing_dir" / "out.csv")
    argv = {
        "null": ["null", "--R", "3", "--T", "10", "--linear-chain", "3", "--reps", "10",
                 "--seed", "1", "-o", missing],
        "test": ["test", panel_file, "--linear-chain", "3", "--reps", "10", "--cutoff",
                 "0.2", "--seed", "1", "-o", missing],
        "prewhiten-acf": ["prewhiten", panel_file, "--ar", "1", "-o",
                          str(tmp_path / "resid.csv"), "--acf-output", missing],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]


@pytest.mark.parametrize("command", ["compute", "null", "prewhiten-acf"])
def test_cli_empty_output_path_is_a_usage_error(command, panel_file, tmp_path, monkeypatch,
                                                capsys):
    # null used to simulate and then fail to write its temporary file into
    # the parent of the working directory; compute printed to stdout
    monkeypatch.chdir(tmp_path)
    argv = {
        "compute": ["compute", panel_file, "--linear-chain", "3", "-o", ""],
        "null": ["null", "--R", "3", "--T", "10", "--linear-chain", "3", "--reps", "10",
                 "--seed", "1", "-o", ""],
        "prewhiten-acf": ["prewhiten", panel_file, "--ar", "1", "-o",
                          str(tmp_path / "resid.csv"), "--acf-output", ""],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must not be empty" in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]


def test_writers_refuse_an_empty_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OutputPathError, match="empty"):
        save_weights("", linear_chain(3))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["fifo", "dir"])
def test_writers_refuse_a_path_that_is_not_a_regular_file(target, tmp_path):
    path = tmp_path / target
    if target == "fifo":
        os.mkfifo(path)
    else:
        path.mkdir()
    with pytest.raises(OutputPathError, match="exists and is not a regular file"):
        save_weights(str(path), linear_chain(3))
    mode = path.stat().st_mode
    assert stat.S_ISFIFO(mode) if target == "fifo" else stat.S_ISDIR(mode)
    assert [p.name for p in tmp_path.iterdir()] == [target]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_output_gets_the_mode_open_would_give(umask, tmp_path):
    # outputs were renamed tempfile.mkstemp files, owner-only whatever the umask
    out = tmp_path / "w.csv"
    old = os.umask(umask)
    try:
        assert main(["weights", "--linear-chain", "3", "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o640, 0o604], ids=oct)
def test_replaced_output_keeps_its_mode(mode, tmp_path):
    out = tmp_path / "w.csv"
    out.write_text("old\n")
    out.chmod(mode)
    save_weights(str(out), linear_chain(3))
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert out.read_text() != "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]
