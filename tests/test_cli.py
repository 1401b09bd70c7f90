"""End-to-end tests of the command line interface."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fabcp
from fabcp import cli
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

    @pytest.mark.parametrize("precision", ["1e-310", "5e-324"])
    def test_precision_with_overflowing_reciprocal_is_the_diffuse_limit(self, tmp_path, capsys, precision):
        """theta_tilde went through tau2 = 1/precision = inf, and the run exited 1."""
        f = tmp_path / "s.csv"
        write_values(f, [0.3, -1.1, 2.0, 0.7])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--mu", "10", "--precision", precision,
            "--alpha", "0.25", "--method", "fab",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["lower"] <= payload["theta_tilde"] <= payload["upper"]

    def test_vanishing_precision_at_one_value_is_one_error_line(self, tmp_path, capsys):
        """1e-20 + 2 rounds to 2: a numpy divide warning, then "interval bounds must not be NaN"."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "predict", "--input", str(f), "--alpha", "0.6", "--precision", "1e-20",
            )
        assert (code, out, err) == (1, "", "error: the diffuse prior requires n >= 2, and n = 1 "
                                           "needs 1/tau2 + 2 > 2; got n = 1, precision = 1e-20\n")

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

    def test_overflowing_sample_is_one_error_line(self, tmp_path, capsys):
        """Two values of 1e308 used to end in an OverflowError traceback from the sample sum."""
        f = tmp_path / "big.csv"
        write_values(f, [1e308, 1e308, 1.0, 2.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--alpha", "0.4", "--method", "dta",
        )
        assert (code, out) == (2, "")
        assert err == "error: input values overflow double precision (intermediate overflow in fsum)\n"

    def test_missing_prior_flags_for_fab(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0])
        code, _, err = run_cli(capsys, "predict", "--input", str(f), "--alpha", "0.25")
        assert code == 1
        assert "--tau2 or --precision" in err

    @pytest.mark.parametrize("method", ["fab", "dta"])
    def test_nan_tau2_blames_tau2(self, tmp_path, capsys, method):
        """The error named --precision, a flag that was not passed."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--tau2", "nan", "--alpha", "0.25",
            "--method", method,
        )
        assert (code, out, err) == (1, "", "error: --tau2 must be positive\n")

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

    @pytest.mark.parametrize("method", ["fab", "dta"])
    def test_tau2_with_precision_is_one_error_line(self, tmp_path, capsys, method):
        """The run used to exit 0 with the --precision prior, ignoring --tau2."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--tau2", "0.5", "--precision", "100",
            "--alpha", "0.25", "--method", method,
        )
        assert (code, out, err) == (1, "", "error: --tau2 and --precision cannot both be given\n")

    @pytest.mark.parametrize("method", ["fab", "dta"])
    def test_tau2_with_overflowing_reciprocal_names_tau2(self, tmp_path, capsys, method):
        """fab said "precision must be finite and nonnegative, got inf"; dta exited 0."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--tau2", "1e-320", "--alpha", "0.25",
            "--method", method,
        )
        message = "error: --tau2 must be large enough that 1/tau2 is finite, got 1e-320\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("prior", [("--tau2", "0.5"), ("--precision", "2")], ids=["tau2", "precision"])
    def test_dta_rejects_a_prior_flag(self, tmp_path, capsys, prior):
        """DTA reads no prior; the run used to exit 0 and ignore the flag."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), *prior, "--mu", "9", "--alpha", "0.4",
            "--method", "dta",
        )
        assert (code, out, err) == (1, "", f"error: {prior[0]} cannot be given with --method dta\n")

    @pytest.mark.parametrize("mu", ["9", "0"])
    def test_dta_rejects_mu(self, tmp_path, capsys, mu):
        """DTA reads no prior mean; the run used to exit 0 and ignore --mu, even at 9."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.0])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--mu", mu, "--alpha", "0.4", "--method", "dta",
        )
        assert (code, out, err) == (1, "", "error: --mu cannot be given with --method dta\n")

    @pytest.mark.parametrize("precision", ["inf", "nan"])
    def test_non_finite_precision_names_the_flag(self, tmp_path, capsys, precision):
        """inf said "precision must be finite and nonnegative, got inf", naming no flag."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.5])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--precision", precision, "--alpha", "0.25",
        )
        assert (code, out, err) == (1, "", f"error: --precision must be finite, got {precision}\n")

    def test_overflowing_prior_term_is_one_error_line(self, tmp_path, capsys):
        """The run exited 0 with upper and theta_tilde both "inf"."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.5])
        code, out, err = run_cli(
            capsys, "predict", "--input", str(f), "--mu", "1e300", "--tau2", "1e-10", "--alpha", "0.25",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: the prior term 2 * mu * precision overflows: mu = 1e+300, ")
        assert err.count("\n") == 1

    def test_overflowing_endpoint_is_one_error_line(self, tmp_path, capsys):
        """The run warned of an overflow in multiply, then exited 0 with lower "-inf"."""
        f = tmp_path / "s.csv"
        write_values(f, [1.0, 2.0, 3.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "predict", "--input", str(f), "--method", "fab", "--mu", "0",
                "--precision", "1.7e308", "--alpha", "0.5",
            )
        message = ("error: the interval endpoints overflow: mu = 0.0, precision = 1.7e+308, "
                   "largest |y| = 3.5\n")
        assert (code, out, err) == (1, "", message)

    def test_invalid_flag_exits_one(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_values(f, [1.0])
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--input", str(f), "--alpha", "0.25", "--method", "spline"])
        assert excinfo.value.code == 1

    def test_unparsable_flag_is_one_error_line(self, tmp_path, capsys):
        """argparse printed a usage block, then "fabcp predict: error: ..."."""
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--input", str(tmp_path / "s.csv"), "--alpha", "abc"])
        assert excinfo.value.code == 1
        assert capsys.readouterr() == ("", "error: argument --alpha: invalid float value: 'abc'\n")

    @pytest.mark.parametrize("alpha, shown", [("7", "7.0"), ("0", "0.0"), ("nan", "nan")])
    def test_bad_alpha_names_the_flag_before_reading_input(self, tmp_path, capsys, alpha, shown):
        """The message named the library's alpha, and came only after --input was read."""
        code, out, err = run_cli(
            capsys, "predict", "--input", str(tmp_path / "missing.csv"), "--tau2", "1", "--alpha", alpha,
        )
        assert (code, out, err) == (1, "", f"error: --alpha must be in (0, 1), got {shown}\n")


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

    @pytest.mark.parametrize("flag, value", [
        ("--eta2", "-1"), ("--eta2", "nan"), ("--a", "0"), ("--a", "-2"),
        ("--b", "nan"), ("--b", "-1"), ("--b", "0"),
    ])
    def test_invalid_model_parameter_is_one_error_line(self, tmp_path, capsys, flag, value):
        """Each failed with a message naming nothing, or ("--b 0") wrote a table."""
        code, out, err = run_cli(
            capsys, "gen-data", "--J", "5", flag, value, "--out-prefix", str(tmp_path / "d"),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} must be finite and ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        """numpy's "expected non-negative integer" used to be the message."""
        code, out, err = run_cli(
            capsys, "gen-data", "--J", "5", "--seed", "-1", "--out-prefix", str(tmp_path / "d"),
        )
        assert (code, out, err) == (1, "", "error: --seed must be a nonnegative integer, got -1\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sizes, message", [
        (("--n-min", "0"), "--n-min must be at least 1, got 0"),
        (("--n-min", "5", "--n-max", "2"), "--n-max 2 is below --n-min 5"),
    ], ids=["n_min_zero", "n_max_below_n_min"])
    def test_bad_sample_size_range_names_the_flags(self, tmp_path, capsys, sizes, message):
        """Both used to say "invalid n_range"."""
        (tmp_path / "d_truth.json").mkdir()  # an unwritable path, not reached
        code, out, err = run_cli(
            capsys, "gen-data", "--J", "5", *sizes, "--out-prefix", str(tmp_path / "d"),
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d_truth.json"]

    @pytest.mark.parametrize("flags, message", [
        (("--J", "1"), "--J must be at least 2, got 1"),
        (("--J", "5", "--rho", "1"), "--rho must be in (-1, 1), got 1.0"),
        (("--J", "5", "--beta", "abc"), "--beta must be two comma-separated numbers, got 'abc'"),
        (("--J", "5", "--beta", "1,2,3"), "--beta must be two comma-separated numbers, got '1,2,3'"),
        (("--J", "5", "--beta", "nan,0"), "--beta must be two finite numbers, got 'nan,0'"),
        (("--J", "5", "--beta", "inf,0"), "--beta must be two finite numbers, got 'inf,0'"),
        (("--J", "5", "--eta2", "-1"), "--eta2 must be finite and nonnegative, got -1.0"),
        (("--J", "5", "--a", "nan"), "--a must be finite and positive, got nan"),
        (("--J", "5", "--b", "0"), "--b must be finite and positive, got 0.0"),
    ], ids=["J_one", "rho_one", "beta_not_a_number", "beta_three_values", "beta_nan", "beta_inf",
            "eta2_negative", "a_nan", "b_zero"])
    def test_bad_model_flag_names_the_flag(self, tmp_path, capsys, flags, message):
        """These named the library's argument, or ("abc") gave only float()'s complaint;
        a non-finite --beta failed on the drawn samples with a message naming no flag."""
        (tmp_path / "d_truth.json").mkdir()  # an unwritable path, not reached
        code, out, err = run_cli(capsys, "gen-data", *flags, "--out-prefix", str(tmp_path / "d"))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_unwritable_path_writes_no_file(self, tmp_path, capsys):
        """The areas and samples files used to be written before the truth path failed."""
        (tmp_path / "p_truth.json").mkdir()
        code, out, err = run_cli(capsys, "gen-data", "--J", "5", "--out-prefix", str(tmp_path / "p"))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {tmp_path / 'p_truth.json'}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "p_truth.json"]

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
        bad.write_text(Path(samples).read_text() + "ghost,1.0\n")
        code, _, err = run_cli(
            capsys, "small-area", "--areas", areas, "--samples", str(bad),
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "ghost" in err

    def test_overflowing_area_sample_is_one_error_line(self, dataset, tmp_path, capsys):
        """An area holding two values of 1e308 used to end in an OverflowError traceback."""
        areas, samples = dataset
        big = tmp_path / "big_samples.csv"
        big.write_text(Path(samples).read_text() + "area000,1e308\narea000,1e308\n")
        keep, new = tmp_path / "keep.csv", tmp_path / "new.csv"
        keep.write_text("previous results\n")
        for path in (keep, new):
            code, out, err = run_cli(
                capsys, "small-area", "--areas", areas, "--samples", str(big), "--output", str(path),
            )
            assert (code, out) == (2, "")
            assert err == "error: input values overflow double precision (intermediate overflow in fsum)\n"
        assert keep.read_text() == "previous results\n"
        assert not new.exists()

    def test_duplicate_area_id_names_its_line(self, tmp_path, capsys):
        """The error used to name line 1 and no id."""
        areas, samples = tmp_path / "areas.csv", tmp_path / "samples.csv"
        areas.write_text("area_id,cx,cy\na,0,0\nb,1,0\na,0,1\n")
        samples.write_text("area_id,value\na,1.0\na,2.0\nb,3.0\nb,4.0\n")
        code, out, err = run_cli(capsys, "small-area", "--areas", str(areas), "--samples", str(samples))
        assert (code, out, err) == (2, "", f"error: {areas}:4: duplicate area id 'a'\n")

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

    def test_quoted_area_ids_round_trip(self, dataset, tmp_path, capsys):
        """An id holding a comma used to be written unquoted, so its rows had 10 fields."""
        renamed = {"area000": "north, east", "area001": 'say "hi"'}
        paths = []
        for path in dataset:
            with open(path, newline="") as fh:
                rows = [[renamed.get(row[0], row[0])] + row[1:] for row in csv.reader(fh)]
            quoted = tmp_path / f"quoted_{Path(path).name}"
            with open(quoted, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            paths.append(str(quoted))
        assert '"north, east"' in Path(paths[0]).read_text()
        code, out, err = run_cli(
            capsys, "small-area", "--areas", paths[0], "--samples", paths[1],
            "--alpha-mode", "exact", "--method", "both",
        )
        assert (code, err) == (0, "")
        rows = list(csv.reader(out.splitlines()))
        assert {len(row) for row in rows} == {9}
        ids = [renamed.get(f"area{j:03d}", f"area{j:03d}") for j in range(12)]
        assert [row[0] for row in rows[1::2]] == [row[0] for row in rows[2::2]] == ids

    @pytest.mark.parametrize("which", ["both", "samples"])
    def test_carriage_return_in_area_id_is_a_line_error(self, dataset, tmp_path, capsys, which):
        """The id loaded, and its unquoted output row read back as rows of 9 and 1 fields."""
        first = 0 if which == "both" else 1
        renamed = _rename_ids(dataset[first:], {"area000": "a\rb"}, tmp_path)
        areas, samples = [*dataset[:first], *renamed]
        code, out, err = run_cli(capsys, "small-area", "--areas", areas, "--samples", samples)
        where, message = (
            (areas, "area id 'a\\rb' holds a carriage return") if which == "both"
            else (samples, "unknown area id 'a\\rb'")
        )
        assert (code, out, err) == (2, "", f"error: {where}:2: {message}\n")

    def test_newline_in_area_id_round_trips(self, dataset, tmp_path, capsys):
        areas, samples = _rename_ids(dataset, {"area000": "a\nb"}, tmp_path)
        code, out, err = run_cli(capsys, "small-area", "--areas", areas, "--samples", samples)
        assert (code, err) == (0, "")
        rows = list(csv.reader(out.splitlines(keepends=True)))
        assert {len(row) for row in rows} == {9}
        assert [row[0] for row in rows[1:3]] == ["a\nb", "a\nb"]

    @pytest.mark.parametrize("alpha", ["7", "0.25"])
    def test_alpha_with_exact_mode_is_one_error_line(self, dataset, capsys, monkeypatch, alpha):
        """--alpha used to be ignored under --alpha-mode exact, with exit 0."""
        areas, samples = dataset
        monkeypatch.setattr(cli, "load_area_table", _no_fit)
        monkeypatch.setattr(cli, "area_pipeline", _no_fit)
        code, out, err = run_cli(
            capsys, "small-area", "--areas", areas, "--samples", samples,
            "--alpha-mode", "exact", "--alpha", alpha,
        )
        assert (code, out, err) == (1, "", "error: --alpha cannot be given with --alpha-mode exact\n")

    @pytest.mark.parametrize("alpha, shown", [
        ("7", "7.0"), ("0", "0.0"), ("1", "1.0"), ("-0.5", "-0.5"), ("nan", "nan"),
    ])
    def test_bad_alpha_names_the_flag(self, dataset, capsys, monkeypatch, alpha, shown):
        """The message used to name the library's alpha_mode argument."""
        areas, samples = dataset
        monkeypatch.setattr(cli, "area_pipeline", _no_fit)
        code, out, err = run_cli(
            capsys, "small-area", "--areas", areas, "--samples", samples, "--alpha", alpha,
        )
        assert (code, out, err) == (1, "", f"error: --alpha must be in (0, 1), got {shown}\n")

    def test_fixed_mode_alpha_defaults_to_a_quarter(self, dataset, capsys):
        areas, samples = dataset
        code, out, _ = run_cli(capsys, "small-area", "--areas", areas, "--samples", samples)
        assert code == 0
        assert {row["alpha_j"] for row in csv.DictReader(out.splitlines())} == {"0.25"}

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

    def test_rank_deficient_covariates_do_not_stop_dta(self, tmp_path, capsys):
        """DTA reads no covariate; a duplicated cov1 column used to exit 3 all the same."""
        prefix = tmp_path / "map"
        assert main(["gen-data", "--J", "8", "--seed", "2", "--out-prefix", str(prefix)]) == 0
        areas = tmp_path / "map_areas.csv"
        rows = [line.split(",") for line in areas.read_text().splitlines()]
        areas.write_text("".join(",".join(r + [r[-1] if i else "cov2"]) + "\n" for i, r in enumerate(rows)))
        argv = ["small-area", "--areas", str(areas), "--samples", str(tmp_path / "map_samples.csv")]
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (3, "error: covariate matrix is rank deficient\n")
        code, out, err = run_cli(capsys, *argv, "--method", "dta")
        assert (code, err) == (0, "")
        records = list(csv.DictReader(out.splitlines()))
        assert len(records) == 8 and {r["method"] for r in records} == {"dta"}

    def test_dta_rejects_standardize(self, dataset, tmp_path, capsys, monkeypatch):
        """DTA reads no covariate; the run used to exit 0 with the bytes of a run without the flag."""
        monkeypatch.setattr(cli, "area_pipeline", _no_fit)
        areas, samples = dataset
        keep, new = tmp_path / "keep.csv", tmp_path / "new.csv"
        keep.write_text("previous results\n")
        for path in (keep, new):
            code, out, err = run_cli(
                capsys, "small-area", "--areas", areas, "--samples", samples, "--method", "dta",
                "--standardize", "--output", str(path),
            )
            assert (code, out, err) == (1, "", "error: --standardize cannot be given with --method dta\n")
        assert keep.read_text() == "previous results\n"
        assert not new.exists()


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

    @pytest.mark.parametrize("methods", [(), ("--methods", "eb")], ids=["default", "eb"])
    def test_overflowing_prior_term_fails_before_any_cell(self, tmp_path, capsys, monkeypatch, methods):
        """This failed in the first cell, with the fab or eb kernel's message naming neither flag."""
        draws = []
        monkeypatch.setattr("fabcp.simulate._cell_uniforms", lambda *args: draws.append(args))
        out = tmp_path / "widths.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--experiment", "expected-width", "--mu", "1e300", "--tau2-list", "1e-10",
            *methods, "--output", str(out),
        )
        assert (code, err) == (1, "error: mu = 1e+300 and tau2_list entry 1e-10 overflow the prior term\n")
        assert draws == [] and not out.exists()

    def test_overflowing_prior_term_unchecked_without_fab_or_eb(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--experiment", "expected-width", "--mu", "1e300", "--tau2-list", "1e-10",
            "--methods", "dta,pivot_z", "--replications", "50", "--output", str(tmp_path / "widths.csv"),
        )
        assert (code, err) == (0, "")

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


    def test_bounds_reads_every_setting(self, tmp_path, capsys):
        """This exited 1 on its two n; one n wrote normal-population fab and dta rows only."""
        out = tmp_path / "bounds.csv"
        methods = ("fab", "dta", "pivot_z", "pivot_t", "eb")
        code, _, err = run_cli(
            capsys, "simulate", "--experiment", "bounds", "--n-list", "3,7", "--tau2-list", "0.5,2",
            "--theta-grid", "0,2", "--methods", ",".join(methods), "--population", "mixture",
            "--replications", "200", "--output", str(out),
        )
        assert (code, err) == (0, "")
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = [(n, t2, th) for n in ("3", "7") for t2 in ("0.5", "2") for th in ("0", "2")]
        assert [(r["n"], r["tau2"], r["theta_minus_mu"], r["method"]) for r in rows] == [
            cell + (m,) for cell in cells for m in methods
        ]
        bounds = [(float(r["mean_lower"]), float(r["mean_upper"])) for r in rows]
        assert all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in bounds)

    def test_negative_list_takes_the_equals_form(self, tmp_path, capsys):
        """argparse reads '-1,0,2' after a space as a flag; after '=' it is the value."""
        out = tmp_path / "bounds.csv"
        argv = ["simulate", "--experiment", "bounds", "--replications", "50", "--output", str(out)]
        code, _, err = run_cli(capsys, *argv, "--theta-grid=-1,0,2")
        assert (code, err) == (0, "")
        with open(out, newline="") as fh:
            assert [r["theta_minus_mu"] for r in csv.DictReader(fh)] == ["-1", "-1", "0", "0", "2", "2"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--theta-grid", "-1,0,2"])
        assert exc.value.code == 1
        assert "expected one argument" in capsys.readouterr().err
        code, _, err = run_cli(capsys, "gen-data", "--J", "6", "--beta=-1,0.5",
                               "--out-prefix", str(tmp_path / "d"))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "d_truth.json").read_text())["beta"] == [-1.0, 0.5]

    @pytest.mark.parametrize("where, setting", [("config", "alpha"), ("flag", "replications")])
    def test_unparsable_setting_is_one_error_line(self, tmp_path, capsys, where, setting):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("alpha=abc\n" if where == "config" else "seed=1\n")
        flags = ("--replications", "x") if where == "flag" else ()
        code, out, err = run_cli(
            capsys, "simulate", "--experiment", "coverage", "--config", str(cfg), *flags,
            "--output", str(tmp_path / "x.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {setting}: ") and err.count("\n") == 1

    def test_config_and_flags_give_the_flags_only_report(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_list=3,5\ntau2_list=0.5,2\nmu=0.1\nseed=9\nmethods=fab\n")
        from_config = tmp_path / "config.csv"
        from_flags = tmp_path / "flags.csv"
        code1, _, _ = run_cli(
            capsys, "simulate", "--experiment", "coverage", "--config", str(cfg),
            "--replications", "200", "--seed", "4", "--output", str(from_config),
        )
        code2, _, _ = run_cli(
            capsys, "simulate", "--experiment", "coverage", "--n-list", "3,5",
            "--tau2-list", "0.5,2", "--mu", "0.1", "--seed", "4", "--methods", "fab",
            "--replications", "200", "--output", str(from_flags),
        )
        assert code1 == code2 == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    @pytest.mark.parametrize("setting, message", [
        (("--methods", "pivot_t"), "bayes-risk needs methods fab,dta, got pivot_t"),
        (("--methods", "fab"), "bayes-risk needs methods fab,dta, got fab"),
        (("--population", "mixture"), "bayes-risk needs population normal, got mixture"),
        (("--theta-grid", "5"), "bayes-risk draws theta ~ N(mu, tau2), so theta_grid must be 0, got 5"),
        (("--config", "theta_grid=0,1"),
         "bayes-risk draws theta ~ N(mu, tau2), so theta_grid must be 0, got 0,1"),
    ], ids=["pivot_t", "fab", "mixture", "theta_flag", "theta_config"])
    def test_bayes_risk_setting_it_cannot_use_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, setting, message,
    ):
        """These exited 0 with normal-population fab, dta and fab/dta rows."""
        flag, value = setting
        if flag == "--config":
            (tmp_path / "sweep.cfg").write_text(value + "\n")
            value = str(tmp_path / "sweep.cfg")
        monkeypatch.setattr(cli.simulate, "bayes_risk_ratio", _no_fit)
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "simulate", "--experiment", "bayes-risk", flag, value, "--output", str(out),
        )
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_bayes_risk_takes_its_settings_in_any_spelling(self, tmp_path, capsys):
        reports = []
        for extra in ((), ("--methods", "dta,fab", "--theta-grid", "0", "--population", "normal")):
            reports.append(tmp_path / f"r{len(reports)}.csv")
            code, _, err = run_cli(
                capsys, "simulate", "--experiment", "bayes-risk", "--replications", "50", *extra,
                "--output", str(reports[-1]),
            )
            assert (code, err) == (0, "")
        assert reports[0].read_bytes() == reports[1].read_bytes()

    @pytest.mark.parametrize("experiment, flag, name", [
        ("coverage", "--tau2-list", "tau2_list"),
        ("coverage", "--n-list", "n_list"),
        ("coverage", "--methods", "methods"),
        ("bayes-risk", "--theta-grid", "theta_grid"),
    ])
    def test_empty_list_is_one_error_line(self, tmp_path, capsys, experiment, flag, name):
        """An empty list gave a header-only report and exit 0."""
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "simulate", "--experiment", experiment, flag, ",", "--output", str(out),
        )
        assert (code, stdout, err) == (1, "", f"error: {name} must not be empty\n")
        assert not out.exists()

    @pytest.mark.parametrize("experiment, flag, value, message", [
        ("coverage", "--mu", "nan", "mu must be finite"),
        ("expected-width", "--theta-grid", "inf", "theta_grid values must be finite"),
        ("bayes-risk", "--tau2-list", "inf", "tau2 values must be finite to draw theta ~ N(mu, tau2)"),
    ])
    def test_non_finite_setting_is_one_error_line(self, tmp_path, capsys, experiment, flag, value, message):
        """These exited 0 with infinite or NaN widths."""
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "simulate", "--experiment", experiment, flag, value,
            "--replications", "50", "--output", str(out),
        )
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_tau2_with_overflowing_precision_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """This ran the tau2 = 0.5 cells, then exited 1 on 'precision must be finite ... got inf'."""
        draws = []
        monkeypatch.setattr("fabcp.simulate._cell_uniforms", lambda *args: draws.append(args))
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(
            capsys, "simulate", "--experiment", "expected-width", "--tau2-list", "0.5,1e-320",
            "--n-list", "3", "--replications", "50", "--output", str(out),
        )
        message = "error: tau2 must be large enough that 1/tau2 is finite, got 1e-320\n"
        assert (code, stdout, err) == (1, "", message)
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_one_error_line(self, tmp_path, capsys, seed):
        """These ran, each with the stream of another seed."""
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "simulate", "--experiment", "coverage", f"--seed={seed}",
            "--replications", "50", "--output", str(out),
        )
        assert (code, stdout, err) == (1, "", f"error: seed must lie in [0, 2**64), got {seed}\n")
        assert not out.exists()

    def test_zero_dta_mean_width_writes_nan_ratio(self, tmp_path, capsys):
        """This exited 1 with a ZeroDivisionError traceback and no report."""
        out = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--experiment", "expected-width", "--population", "mixture",
            "--n-list", "2", "--alpha", "0.4", "--replications", "1", "--seed", "0",
            "--output", str(out),
        )
        assert (code, err) == (0, "")
        with open(out, newline="") as fh:
            ratio = [r for r in csv.DictReader(fh) if r["method"] == "fab/dta"]
        assert [(r["mean_width"], r["width_se"]) for r in ratio] == [("nan", "nan")]

    def test_settings_table_covers_sim_config(self):
        assert list(cli._SIM_FIELDS) == [f.name for f in dataclasses.fields(cli.simulate.SimConfig)]


@pytest.mark.parametrize("which", ["input", "areas", "samples"])
def test_header_only_input_has_no_data_rows(tmp_path, capsys, which):
    """A header-only areas.csv raised IndexError with a traceback."""
    code, _, _ = run_cli(capsys, "gen-data", "--J", "6", "--out-prefix", str(tmp_path / "d"))
    assert code == 0
    paths = {"input": tmp_path / "s.csv", "areas": tmp_path / "d_areas.csv",
             "samples": tmp_path / "d_samples.csv"}
    write_values(paths["input"], [1.0, 2.0])
    header = paths[which].read_text().splitlines()[0]
    paths[which].write_text(header + "\n\n")
    argv = (["predict", "--input", str(paths["input"]), "--tau2", "1", "--alpha", "0.25"]
            if which == "input" else
            ["small-area", "--areas", str(paths["areas"]), "--samples", str(paths["samples"])])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {paths[which]}:2: no data rows\n"


def test_blank_rows_are_skipped_in_every_input(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen-data", "--J", "6", "--out-prefix", str(tmp_path / "d"))
    assert code == 0
    areas, samples = tmp_path / "d_areas.csv", tmp_path / "d_samples.csv"
    values = tmp_path / "s.csv"
    write_values(values, [1.0, 2.0])
    want = (cli.load_value_csv(str(values)), cli.load_area_table(str(areas), str(samples)))
    for path, blank in ((values, " \n"), (areas, ",, ,\n"), (samples, "\n , \n")):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + blank + "".join(lines[1:]) + blank)
    got = (cli.load_value_csv(str(values)), cli.load_area_table(str(areas), str(samples)))
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].ids == want[1].ids
    np.testing.assert_array_equal(got[1].X, want[1].X)
    np.testing.assert_array_equal(got[1].centroids, want[1].centroids)
    for a, b in zip(got[1].samples, want[1].samples):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("case", ["header", "ragged_row", "area_without_samples",
                                  "negative_precision", "config_line"])
def test_bad_input_is_one_error_line(tmp_path, capsys, case):
    code, _, _ = run_cli(capsys, "gen-data", "--J", "6", "--out-prefix", str(tmp_path / "d"))
    assert code == 0
    values, samples, cfg = tmp_path / "s.csv", tmp_path / "d_samples.csv", tmp_path / "sweep.cfg"
    write_values(values, [1.0, 2.0])
    predict = ["predict", "--input", str(values), "--tau2", "1", "--alpha", "0.25"]
    if case == "header":
        values.write_text("val\n1.0\n")
        argv, want = predict, (2, f"{values}:1: expected a single 'value' column header")
    elif case == "ragged_row":
        values.write_text("value\n1.0\n2.0,3.0\n")
        argv, want = predict, (2, f"{values}:3: expected 1 columns, found 2")
    elif case == "area_without_samples":
        lines = samples.read_text().splitlines(keepends=True)
        samples.write_text("".join(line for line in lines if not line.startswith("area003,")))
        argv = ["small-area", "--areas", str(tmp_path / "d_areas.csv"), "--samples", str(samples)]
        want = (2, f"{samples}:1: area 'area003' has no samples")
    elif case == "negative_precision":
        argv = ["predict", "--input", str(values), "--precision", "-1", "--alpha", "0.25"]
        want = (1, "--precision must be nonnegative")
    else:
        cfg.write_text("seed=1\nn_list 3\n")
        argv = ["simulate", "--experiment", "coverage", "--config", str(cfg),
                "--output", str(tmp_path / "x.csv")]
        want = (2, f"{cfg}:2: expected key=value")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (want[0], "", f"error: {want[1]}\n")


@pytest.mark.parametrize("command", ["small-area", "simulate"])
def test_failed_run_keeps_existing_output(tmp_path, capsys, command):
    """A run that exited non-zero used to leave an existing output file empty,
    and a new 0-byte file where there was none."""
    areas, samples = tmp_path / "areas.csv", tmp_path / "samples.csv"
    areas.write_text("area_id,cx,cy,cov1\na,0,0,1\nb,1,0,2\n")
    samples.write_text("area_id,value\na,1.0\na,2.0\nb,3.0\nb,5.0\n")
    keep, new = tmp_path / "keep.csv", tmp_path / "new.csv"
    keep.write_text("previous results\n")
    # each run fails after its output path was checked: the pipeline needs three areas
    argv = {
        "small-area": ["small-area", "--areas", str(areas), "--samples", str(samples)],
        "simulate": ["simulate", "--experiment", "coverage", "--methods", "dta", "--n-list", "1"],
    }[command]
    for path in (keep, new):
        code, _, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert keep.read_text() == "previous results\n"
    assert not new.exists()


@pytest.mark.parametrize("flag", [
    "--input", "--areas", "--samples", "--config",
    "small-area --output", "--out-prefix", "simulate --output",
])
def test_unreadable_path_is_one_error_line(tmp_path, capsys, monkeypatch, flag):
    values = tmp_path / "s.csv"
    write_values(values, [1.0, 2.0])
    code, _, _ = run_cli(capsys, "gen-data", "--J", "6", "--out-prefix", str(tmp_path / "d"))
    assert code == 0
    areas, samples = str(tmp_path / "d_areas.csv"), str(tmp_path / "d_samples.csv")
    missing = str(tmp_path / "missing.csv")
    nodir = str(tmp_path / "nodir" / "o")
    argv, path, verb = {
        "--input": (["predict", "--input", missing, "--tau2", "1", "--alpha", "0.25"], missing, "read"),
        "--areas": (["small-area", "--areas", missing, "--samples", samples], missing, "read"),
        "--samples": (["small-area", "--areas", areas, "--samples", missing], missing, "read"),
        "--config": (["simulate", "--experiment", "coverage", "--config", missing,
                      "--output", str(tmp_path / "x.csv")], missing, "read"),
        "small-area --output": (["small-area", "--areas", areas, "--samples", samples,
                                 "--output", nodir], nodir, "write"),
        "--out-prefix": (["gen-data", "--J", "6", "--out-prefix", nodir], nodir + "_areas.csv", "write"),
        "simulate --output": (["simulate", "--experiment", "coverage", "--output", nodir],
                              nodir, "write"),
    }[flag]
    # an unwritable output fails before any work: no area is fitted, no cell simulated
    monkeypatch.setattr(cli, "area_pipeline", _no_work)
    monkeypatch.setattr(cli.simulate, "coverage_experiment", _no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot {verb} {path}: ") and err.count("\n") == 1


def _no_work(*args, **kwargs):
    raise AssertionError("ran before the output path was checked")


def _no_fit(*args, **kwargs):
    raise AssertionError("ran before the flags were checked")


def _rename_ids(paths, renamed, out_dir):
    """Copies of the area CSVs at ``paths``, with the ids in ``renamed`` renamed."""
    copies = []
    for path in paths:
        with open(path, newline="") as fh:
            rows = [[renamed.get(row[0], row[0])] + row[1:] for row in csv.reader(fh)]
        copy = out_dir / f"renamed_{Path(path).name}"
        with open(copy, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        copies.append(str(copy))
    return copies


def test_import_does_not_load_scipy_optimize():
    """Every command pays the import; scipy.optimize is off the package's paths."""
    code = (
        "import sys, fabcp, fabcp.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded at import'\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded at import'\n"
        "from scipy.optimize import minimize\n"
        "assert fabcp.small_area.minimize is minimize\n"
    )
    src = str(Path(fabcp.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("command", [(), ("predict",), ("small-area",), ("simulate",), ("gen-data",)],
                         ids=["fabcp", "predict", "small-area", "simulate", "gen-data"])
def test_help_prints_usage(capsys, command):
    """argparse formats help strings only under --help, so a malformed one fails only there."""
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    out, err = capsys.readouterr()
    assert (excinfo.value.code, err) == (0, "")
    assert out.startswith(" ".join(["usage: fabcp", *command]) + " ")
