"""End-to-end tests of the command line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fabcp
from fabcp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_values(path, values):
    path.write_text("value\n" + "".join(f"{v}\n" for v in values))


class TestPredict:
    def test_degenerate_zero_sample(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [0.0, 0.0, 0.0])
        code, out, _ = run_cli(
            capsys, "predict", "--input", str(f), "--mu", "0", "--tau2", "1",
            "--alpha", "0.25", "--method", "fab",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "fab"
        assert payload["n"] == 3
        assert payload["k"] == 1
        assert payload["lower"] == 0.0 and payload["upper"] == 0.0
        assert payload["achieved_level"] == 0.75
        assert payload["theta_tilde"] == 0.0

    def test_precision_zero_equals_dta(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [0.3, -1.1, 2.0, 0.7])
        code1, out1, _ = run_cli(
            capsys, "predict", "--input", str(f), "--precision", "0",
            "--alpha", "0.25", "--method", "fab",
        )
        code2, out2, _ = run_cli(
            capsys, "predict", "--input", str(f), "--alpha", "0.25", "--method", "dta",
        )
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        for key in ("n", "k", "achieved_level", "lower", "upper", "theta_tilde"):
            assert a[key] == b[key]

    def test_k_zero_warns_and_reports_infinite(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--mu", "0", "--tau2", "1",
            "--alpha", "0.1", "--method", "fab",
        )
        assert code == 0
        assert "warning" in err
        payload = json.loads(out)
        assert payload["lower"] == "-inf" and payload["upper"] == "inf"
        assert payload["k"] == 0

    def test_output_reproducible_byte_for_byte(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [0.123456789012345, -1.9, 0.4])
        args = ("predict", "--input", str(f), "--mu", "0.2", "--tau2", "0.5",
                "--alpha", "0.25", "--method", "fab")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("value\n1.0\noops\n")
        code, _, err = run_cli(
            capsys, "predict", "--input", str(f), "--tau2", "1", "--alpha", "0.25",
        )
        assert code == 2
        assert ":3:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, capsys, value):
        f = tmp_path / "s.csv"
        f.write_text(f"value\n1.0\n{value}\n2.0\n")
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--tau2", "1", "--alpha", "0.25",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {f}:3: not a finite number: '{value}'\n"

    def test_missing_prior_flags_for_fab(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0])
        code, _, err = run_cli(capsys, "predict", "--input", str(f), "--alpha", "0.25")
        assert code == 1
        assert "--tau2 or --precision" in err

    @pytest.mark.parametrize("prior", [("--precision", "0"), ("--tau2", "1")])
    def test_non_finite_mu_exits_one(self, tmp_path, capsys, prior):
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.0, 4.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--mu", "nan", *prior,
            "--alpha", "0.25", "--method", "fab",
        )
        assert code == 1
        assert out == ""
        assert "mu must be finite" in err

    def test_invalid_flag_exits_one(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [1.0])
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--input", str(f), "--alpha", "0.25", "--method", "spline"])
        assert excinfo.value.code == 1


class TestGenData:
    def test_deterministic_outputs(self, tmp_path, capsys):
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            code, _, _ = run_cli(
                capsys, "gen-data", "--J", "8", "--seed", "42",
                "--out-prefix", str(tmp_path / sub / "d"),
            )
            assert code == 0
        for name in ("d_areas.csv", "d_samples.csv", "d_truth.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_variance_moments_match_prior_mean(self, tmp_path, capsys):
        # E[s2/(n-1)] = b/(a-2)
        code, _, _ = run_cli(
            capsys, "gen-data", "--J", "300", "--n-min", "15", "--n-max", "15",
            "--a", "6", "--b", "4", "--seed", "7", "--out-prefix", str(tmp_path / "d"),
        )
        assert code == 0
        samples: dict[str, list[float]] = {}
        with open(tmp_path / "d_samples.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                samples.setdefault(row["area_id"], []).append(float(row["value"]))
        v = [np.var(np.array(vals), ddof=1) for vals in samples.values()]
        assert float(np.mean(v)) == pytest.approx(4.0 / 4.0, rel=0.15)

    def test_rho_zero_gives_uncorrelated_neighbors(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "gen-data", "--J", "400", "--rho", "0", "--eta2", "1",
            "--beta", "0,0", "--seed", "11", "--out-prefix", str(tmp_path / "d"),
        )
        assert code == 0
        truth = json.loads((tmp_path / "d_truth.json").read_text())
        theta = np.array(truth["theta"])
        areas = []
        with open(tmp_path / "d_areas.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                areas.append((float(row["cx"]), float(row["cy"])))
        from fabcp.small_area import sq_exp_weights

        W = sq_exp_weights(areas)
        neighbor_avg = W @ theta
        corr = np.corrcoef(theta, neighbor_avg)[0, 1]
        assert abs(corr) < 0.15


class TestSmallArea:
    @pytest.fixture()
    def dataset(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "gen-data", "--J", "12", "--n-min", "3", "--n-max", "8",
            "--eta2", "0.5", "--rho", "0.7", "--seed", "3",
            "--out-prefix", str(tmp_path / "d"),
        )
        assert code == 0
        return str(tmp_path / "d_areas.csv"), str(tmp_path / "d_samples.csv")

    def test_round_trip_with_exact_alpha(self, dataset, tmp_path, capsys):
        areas, samples = dataset
        out = tmp_path / "intervals.csv"
        code, _, _ = run_cli(
            capsys, "small-area", "--areas", areas, "--samples", samples,
            "--alpha-mode", "exact", "--method", "both", "--output", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and len(rows) % 2 == 0
        by_area: dict[str, dict[str, dict]] = {}
        for row in rows:
            n = int(row["n"])
            want = math.floor((n + 1) / 3.0) / (n + 1)
            assert float(row["alpha_j"]) == pytest.approx(want, rel=1e-12)
            assert float(row["lower"]) <= float(row["upper"])
            by_area.setdefault(row["area_id"], {})[row["method"]] = row
        for methods in by_area.values():
            assert set(methods) == {"fab", "dta"}

    def test_unknown_area_id_exits_two(self, dataset, tmp_path, capsys):
        areas, samples = dataset
        bad = tmp_path / "bad_samples.csv"
        bad.write_text(open(samples).read() + "ghost,1.0\n")
        code, _, err = run_cli(
            capsys, "small-area", "--areas", areas, "--samples", str(bad),
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "ghost" in err

    @pytest.mark.parametrize("which, line, field, value", [
        ("areas", 3, 1, "nan"),  # a centroid
        ("areas", 5, 3, "inf"),  # a covariate
        ("samples", 4, 1, "nan"),
    ])
    def test_non_finite_field_reports_line(self, dataset, tmp_path, capsys, which, line, field, value):
        """A NaN centroid used to send every area to DTA and exit 0."""
        paths = dict(zip(("areas", "samples"), dataset))
        rows = Path(paths[which]).read_text().splitlines()
        cells = rows[line - 1].split(",")
        cells[field] = value
        rows[line - 1] = ",".join(cells)
        bad = tmp_path / f"bad_{which}.csv"
        bad.write_text("\n".join(rows) + "\n")
        paths[which] = str(bad)
        code, out, err = run_cli(
            capsys, "small-area", "--areas", paths["areas"], "--samples", paths["samples"],
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}:{line}: ") and err.count("\n") == 1

    def test_standardize_flag_changes_loaded_covariates(self, dataset):
        from fabcp.cli import load_area_table

        areas, samples = dataset
        raw = load_area_table(areas, samples)
        std = load_area_table(areas, samples, standardize=True)
        assert float(np.mean(std.X[:, 1])) == pytest.approx(0.0, abs=1e-12)
        assert float(np.std(std.X[:, 1])) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(raw.X[:, 0], std.X[:, 0])

    def test_rank_deficient_covariates_exit_three(self, tmp_path, capsys):
        areas = tmp_path / "areas.csv"
        samples = tmp_path / "samples.csv"
        with open(areas, "w") as fh:
            fh.write("area_id,cx,cy,cov1\n")
            for j in range(5):
                fh.write(f"a{j},{j * 1.0},0.0,2.0\n")  # constant covariate
        with open(samples, "w") as fh:
            fh.write("area_id,value\n")
            rng = np.random.default_rng(0)
            for j in range(5):
                for v in rng.normal(size=4):
                    fh.write(f"a{j},{v}\n")
        code, _, err = run_cli(
            capsys, "small-area", "--areas", str(areas), "--samples", str(samples),
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "rank deficient" in err


class TestSimulateCommand:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_list=3\nalpha=0.25\nreplications=400\nseed=5\nmethods=fab,dta\n")
        out = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--experiment", "expected-width",
            "--config", str(cfg), "--replications", "200", "--output", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"fab", "dta", "fab/dta"}

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("taus=1\n")
        code, _, err = run_cli(
            capsys, "simulate", "--experiment", "coverage",
            "--config", str(cfg), "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "unknown config key" in err

    def test_sample_size_beyond_32_draws_runs(self, tmp_path, capsys):
        out = tmp_path / "coverage.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--experiment", "coverage", "--n-list", "40",
            "--replications", "200", "--output", str(out),
        )
        assert code == 0, err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["n"] for r in rows} == {"40"}
        assert all(0.0 < float(r["coverage"]) < 1.0 for r in rows)

    def test_bounds_experiment_writes_endpoints(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--experiment", "bounds", "--theta-grid", "0,1",
            "--replications", "200", "--output", str(out),
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("mean_lower,mean_upper")


@pytest.mark.parametrize("flag", ["--input", "--areas", "--samples", "--config"])
def test_unreadable_path_is_one_error_line(tmp_path, capsys, flag):
    values = tmp_path / "s.csv"
    write_values(values, [1.0, 2.0])
    code, _, _ = run_cli(capsys, "gen-data", "--J", "6", "--out-prefix", str(tmp_path / "d"))
    assert code == 0
    missing = str(tmp_path / "missing.csv")
    argv = {
        "--input": ["predict", "--input", missing, "--tau2", "1", "--alpha", "0.25"],
        "--areas": ["small-area", "--areas", missing, "--samples", str(tmp_path / "d_samples.csv")],
        "--samples": ["small-area", "--areas", str(tmp_path / "d_areas.csv"), "--samples", missing],
        "--config": ["simulate", "--experiment", "coverage", "--config", missing,
                     "--output", str(tmp_path / "x.csv")],
    }[flag]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1


def test_import_does_not_load_scipy_optimize():
    """Every command pays the import; scipy.optimize is off the package's paths."""
    code = (
        "import sys, fabcp, fabcp.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded at import'\n"
        "from scipy.optimize import minimize\n"
        "assert fabcp.small_area.minimize is minimize\n"
    )
    src = str(Path(fabcp.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
