import json

import numpy as np

from maxcon import theory
from maxcon.cli import main
from maxcon.ingest import CorrespondenceSet, save_correspondences_csv
from maxcon.models import load_dataset_csv


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_fit_exact_roundtrip(tmp_path, capsys):
    data = tmp_path / "line.csv"
    code, _, _ = run_cli(
        [
            "gen", "--n", "12", "--dim", "2", "--outlier-fraction", "0.3",
            "--seed", "3", "--out", str(data),
        ],
        capsys,
    )
    assert code == 0
    truth = json.loads((tmp_path / "line.csv.truth.json").read_text())
    assert len(truth["theta"]) == 2

    out_json = tmp_path / "fit.json"
    code, _, _ = run_cli(
        [
            "fit", "--data", str(data), "--eps", "0.1", "--method", "wi",
            "--q", "0.3", "--samples", "150", "--seed", "1", "--out", str(out_json),
        ],
        capsys,
    )
    assert code == 0
    wi = json.loads(out_json.read_text())
    assert wi["method"] == "wi"

    code, out, _ = run_cli(
        ["fit", "--data", str(data), "--eps", "0.1", "--method", "exact"], capsys
    )
    assert code == 0
    exact = json.loads(out)
    assert exact["consensus_size"] >= wi["consensus_size"]
    assert set(truth["inliers"]) <= set(exact["inlier_indices"])


def test_fit_ransac_and_mbf(tmp_path, capsys):
    data = tmp_path / "line.csv"
    run_cli(
        ["gen", "--n", "12", "--dim", "2", "--outliers", "3", "--seed", "5", "--out", str(data)],
        capsys,
    )
    for method in ("ransac", "lo-ransac", "mbf"):
        code, out, _ = run_cli(
            [
                "fit", "--data", str(data), "--eps", "0.1", "--method", method,
                "--seed", "2", "--samples", "120", "--iterations", "40",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["method"] == method


def test_fit_rejects_invalid_budgets(tmp_path, capsys):
    data = tmp_path / "line.csv"
    run_cli(
        ["gen", "--n", "12", "--dim", "2", "--outliers", "3", "--seed", "5", "--out", str(data)],
        capsys,
    )
    fit = ["fit", "--data", str(data), "--eps", "0.1"]
    for flags in (
        ["--method", "ransac", "--iterations", "-5"],
        ["--method", "ransac", "--time-budget", "-1"],
        ["--method", "wi", "--time-budget", "0"],
    ):
        code, out, err = run_cli(fit + flags, capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "ValueError"


def test_influence_exact_and_estimated(tmp_path, capsys):
    data = tmp_path / "line.csv"
    run_cli(
        ["gen", "--n", "10", "--dim", "2", "--outliers", "3", "--seed", "7", "--out", str(data)],
        capsys,
    )
    code, out, _ = run_cli(
        ["influence", "--data", str(data), "--eps", "0.1", "--estimator", "exact", "--q", "0.5"],
        capsys,
    )
    assert code == 0
    exact = json.loads(out)
    assert exact["measure"] == "exact"
    assert len(exact["scores"]) == 10

    code, out, _ = run_cli(
        [
            "influence", "--data", str(data), "--eps", "0.1", "--estimator", "hamming",
            "--level", "4", "--samples", "64", "--seed", "1", "--indices", "0,3,5",
        ],
        capsys,
    )
    assert code == 0
    est = json.loads(out)
    assert est["measure"] == "hamming"
    assert [e["index"] for e in est["scores"]] == [0, 3, 5]


def test_hamming_influence_without_level_is_usage_error(tmp_path, capsys):
    data = tmp_path / "line.csv"
    run_cli(["gen", "--n", "8", "--dim", "2", "--seed", "1", "--out", str(data)], capsys)
    code, out, err = run_cli(
        ["influence", "--data", str(data), "--eps", "0.1", "--estimator", "hamming"], capsys
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert "--level" in error["message"]


def test_removed_options_are_usage_errors(tmp_path, capsys):
    data = tmp_path / "line.csv"
    run_cli(["gen", "--n", "8", "--dim", "2", "--seed", "1", "--out", str(data)], capsys)
    for extra in (
        ["fit", "--method", "wi", "--local-expansion", "per_iteration"],
        ["influence", "--workers", "2"],
        ["influence", "--tabulate"],
    ):
        code, out, err = run_cli(extra + ["--data", str(data), "--eps", "0.1"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "usage"


def test_theory_verify_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 8, "p": 2, "zeros": ["10001101", "00111111"]}))
    out_path = tmp_path / "rows.json"
    code, _, _ = run_cli(
        ["theory", "verify", "--spec", str(spec), "--q", "1/2", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 4
    for row in rows:
        assert row["abs_diff"] == 0.0
        assert row["spec"]["pseudo_zeros"] == ["00001101"]


def test_theory_verify_rejects_a_zero_of_the_wrong_width(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 8, "p": 2, "zeros": ["1000110100", "00111111"]}))
    code, out, err = run_cli(["theory", "verify", "--spec", str(spec)], capsys)
    assert code == 1
    assert out == "" and len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_theory_verify_float_q_passes_within_rounding(tmp_path, capsys):
    # the closed form and the brute-force sum add in different orders
    out_path = tmp_path / "rows.json"
    code, _, _ = run_cli(["theory", "verify", "--q", "0.3", "--out", str(out_path)], capsys)
    assert code == 0
    assert any(row["abs_diff"] > 0 for row in json.loads(out_path.read_text()))


def test_theory_verify_float_q_fails_beyond_rounding(tmp_path, capsys, monkeypatch):
    real = theory.class_influence
    monkeypatch.setattr(
        theory, "class_influence", lambda spec, pattern, q: real(spec, pattern, q) * (1 + 1e-9)
    )
    out_path = tmp_path / "rows.json"
    code, _, _ = run_cli(["theory", "verify", "--q", "0.3", "--out", str(out_path)], capsys)
    assert code == 1


def test_ingest_commands(tmp_path, capsys):
    rng = np.random.default_rng(0)
    matches = tmp_path / "matches.csv"
    pts = rng.uniform(-1, 1, size=(10, 2))
    save_correspondences_csv(CorrespondenceSet(np.column_stack([pts, pts])), matches)
    for cmd, rows in (("ingest-fm", 10), ("ingest-h", 20)):
        out = tmp_path / f"{cmd}.csv"
        code, _, _ = run_cli([cmd, "--matches", str(matches), "--out", str(out)], capsys)
        assert code == 0
        ds = load_dataset_csv(out)
        assert ds.n == rows and ds.p == 8


def test_experiment_command(tmp_path, capsys):
    cfg = {
        "dataset": {"source": "generated", "n": 10, "dim": 2, "outlier_count": 3, "seed": 2},
        "epsilon": 0.1,
        "methods": [{"name": "wi", "q": 0.3, "samples": 120}],
        "repetitions": 2,
        "seed": 1,
        "output": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["experiment", "--config", str(cfg_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 2
    assert (tmp_path / "out" / "summary.csv").exists()


def test_error_is_machine_readable_json(tmp_path, capsys):
    code, _, err = run_cli(
        ["fit", "--data", str(tmp_path / "missing.csv"), "--eps", "0.1", "--method", "wi"],
        capsys,
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["type"] == "FileNotFoundError"


def test_usage_error_is_json(capsys):
    code, _, err = run_cli(["fit", "--data"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"
