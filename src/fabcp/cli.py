"""Command line interface: prediction, small-area runs, sweeps, data generation.

Exit codes: 0 success, 1 invalid flags (an input path that cannot be read
counts as one), 2 malformed input data, such as a non-numeric or
non-finite field (reported with a line number), 3 rank-deficient
covariate matrix. Every error is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import simulate
from .baselines import dta_interval
from .fab import fab_interval_from_precision
from .simulate import _fmt
from .small_area import AreaTable, area_pipeline, generate_table
from .working_model import posterior_mean_theta, WorkingModelParams

EXIT_BAD_FLAGS = 1
EXIT_BAD_DATA = 2
EXIT_RANK_DEFICIENT = 3


class CSVFormatError(Exception):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors with exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_FLAGS, f"{self.prog}: error: {message}\n")


def _dump_json(obj: dict) -> str:
    """Serialize with floats at 17 significant digits and inf as strings."""
    parts = []
    for key, value in obj.items():
        if isinstance(value, float):
            token = f'"{_fmt(value)}"' if math.isinf(value) else _fmt(value)
        elif isinstance(value, bool):
            token = "true" if value else "false"
        elif value is None:
            token = "null"
        elif isinstance(value, int):
            token = str(value)
        else:
            token = json.dumps(value)
        parts.append(f'"{key}": {token}')
    return "{" + ", ".join(parts) + "}"


# -- loaders -------------------------------------------------------------------


def _open_input(path: str):
    """``path`` opened for reading; a path that cannot be read is a bad flag (exit 1)."""
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _finite(text: str) -> float:
    """``float(text)``; raises ``ValueError`` for text that is not a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def load_value_csv(path: str) -> np.ndarray:
    """Read a one-column CSV with header ``value``."""
    values = []
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["value"]:
            raise CSVFormatError(path, 1, "expected a single 'value' column header")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1:
                raise CSVFormatError(path, line_no, f"expected 1 column, found {len(row)}")
            try:
                values.append(_finite(row[0]))
            except ValueError:
                raise CSVFormatError(path, line_no, f"not a finite number: {row[0]!r}") from None
    if not values:
        raise CSVFormatError(path, 2, "no data rows")
    return np.array(values)


def load_area_table(areas_path: str, samples_path: str, standardize: bool = False) -> AreaTable:
    """Assemble an AreaTable from the two-file CSV schema.

    ``areas.csv``: ``area_id,cx,cy,cov1,...,covp`` (intercept added here).
    ``samples.csv``: ``area_id,value``. With ``standardize`` the covariate
    columns (not the intercept) are centered and scaled to unit variance.
    """
    ids: list[str] = []
    centroids: list[list[float]] = []
    covs: list[list[float]] = []
    with _open_input(areas_path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0].strip() != "area_id":
            raise CSVFormatError(areas_path, 1, "expected header area_id,cx,cy[,cov1,...]")
        width = len(header)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise CSVFormatError(areas_path, line_no, f"expected {width} columns, found {len(row)}")
            try:
                nums = [_finite(v) for v in row[1:]]
            except ValueError:
                raise CSVFormatError(areas_path, line_no, "non-numeric or non-finite field") from None
            ids.append(row[0].strip())
            centroids.append(nums[:2])
            covs.append(nums[2:])
    if len(ids) != len(set(ids)):
        raise CSVFormatError(areas_path, 1, "duplicate area ids")

    index = {area_id: j for j, area_id in enumerate(ids)}
    samples: list[list[float]] = [[] for _ in ids]
    with _open_input(samples_path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["area_id", "value"]:
            raise CSVFormatError(samples_path, 1, "expected header area_id,value")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CSVFormatError(samples_path, line_no, f"expected 2 columns, found {len(row)}")
            area_id = row[0].strip()
            if area_id not in index:
                raise CSVFormatError(samples_path, line_no, f"unknown area id {area_id!r}")
            try:
                samples[index[area_id]].append(_finite(row[1]))
            except ValueError:
                raise CSVFormatError(samples_path, line_no, f"not a finite number: {row[1]!r}") from None
    for j, vals in enumerate(samples):
        if not vals:
            raise CSVFormatError(samples_path, 1, f"area {ids[j]!r} has no samples")

    if covs[0]:
        columns = [np.array([c[i] for c in covs]) for i in range(len(covs[0]))]
        if standardize:
            for i, col in enumerate(columns):
                sd = float(np.std(col))
                if sd > 0.0:
                    columns[i] = (col - float(np.mean(col))) / sd
        X = np.column_stack([np.ones(len(ids))] + columns)
    else:
        X = np.ones((len(ids), 1))
    return AreaTable(
        ids=ids,
        samples=[np.array(v) for v in samples],
        X=X,
        centroids=np.array(centroids),
    )


# -- subcommands ----------------------------------------------------------------


def _cmd_predict(args: argparse.Namespace) -> int:
    sample = load_value_csv(args.input)
    n = sample.size
    if args.precision is not None:
        if args.precision < 0:
            print("error: --precision must be nonnegative", file=sys.stderr)
            return EXIT_BAD_FLAGS
        precision, mu = args.precision, args.mu
    elif args.tau2 is not None:
        if args.tau2 <= 0:
            print("error: --tau2 must be positive", file=sys.stderr)
            return EXIT_BAD_FLAGS
        precision, mu = 1.0 / args.tau2, args.mu
    elif args.method == "fab":
        print("error: --method fab needs --tau2 or --precision", file=sys.stderr)
        return EXIT_BAD_FLAGS
    else:
        precision, mu = 0.0, 0.0

    if args.method == "fab":
        interval = fab_interval_from_precision(sample, mu, precision, args.alpha)
    else:
        interval = dta_interval(sample, args.alpha)

    if args.method == "fab" and precision > 0.0:
        theta_tilde = posterior_mean_theta(
            sample, WorkingModelParams(mu=mu, tau2=1.0 / precision, a=1.0, b=1.0)
        )
    else:
        theta_tilde = float(np.mean(sample))

    if interval.k == 0:
        print("warning: floor(alpha*(n+1)) = 0; the region is the whole real line",
              file=sys.stderr)
    print(_dump_json({
        "method": args.method,
        "n": n,
        "k": interval.k,
        "achieved_level": interval.achieved_level,
        "lower": interval.lower,
        "upper": interval.upper,
        "theta_tilde": theta_tilde,
    }))
    return 0


def _cmd_small_area(args: argparse.Namespace) -> int:
    table = load_area_table(args.areas, args.samples, standardize=args.standardize)
    if np.linalg.matrix_rank(table.X) < table.X.shape[1]:
        print("error: covariate matrix is rank deficient", file=sys.stderr)
        return EXIT_RANK_DEFICIENT
    alpha_mode: float | str = "exact" if args.alpha_mode == "exact" else args.alpha
    methods = ("fab", "dta") if args.method == "both" else (args.method,)
    records = area_pipeline(table, alpha_mode, methods)

    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        out.write("area_id,n,alpha_j,method,lower,upper,mu_j,tau2_j,fallback_flag\n")
        for r in records:
            out.write(
                f"{r.area_id},{r.n},{_fmt(r.alpha_j)},{r.method},"
                f"{_fmt(r.interval.lower)},{_fmt(r.interval.upper)},"
                f"{_fmt(r.mu_j)},{_fmt(r.tau2_j)},{int(r.fallback)}\n"
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with _open_input(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CSVFormatError(path, line_no, "expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# SimConfig's defaults as config-file values; tuples are comma-joined.
_SIM_DEFAULTS = {
    f.name: ",".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
    for f in dataclasses.fields(simulate.SimConfig)
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Precedence: command-line flag > config-file entry > built-in default.
    values = dict(_SIM_DEFAULTS)
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in values:
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return EXIT_BAD_FLAGS
            values[key] = value
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)

    n_list = _parse_ints(values["n_list"])
    tau2_list = _parse_floats(values["tau2_list"])
    theta_grid = _parse_floats(values["theta_grid"])
    methods = tuple(m.strip() for m in values["methods"].split(",") if m.strip())
    config = simulate.SimConfig(
        methods=methods,
        n_list=n_list,
        alpha=float(values["alpha"]),
        theta_grid=theta_grid,
        mu=float(values["mu"]),
        tau2_list=tau2_list,
        replications=int(values["replications"]),
        seed=int(values["seed"]),
        population=values["population"],
    )
    experiment = str(args.experiment)
    if experiment == "expected-width":
        report = simulate.expected_width(config)
    elif experiment == "coverage":
        report = simulate.coverage_experiment(config)
    elif experiment == "bayes-risk":
        report = simulate.bayes_risk_ratio(
            n_list, tau2_list, config.alpha, config.replications, config.seed, mu=config.mu,
        )
    elif experiment == "bounds":
        report = simulate.bounds_profile(
            theta_grid, n_list[0], config.mu, tau2_list[0], config.alpha,
            config.replications, config.seed,
        )
    else:
        print(f"error: unknown experiment {experiment!r}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    report.to_csv(args.output, include_endpoints=(experiment == "bounds"))
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    beta = _parse_floats(args.beta)
    table, truth = generate_table(
        J=args.J,
        n_range=(args.n_min, args.n_max),
        beta=beta,
        eta2=args.eta2,
        rho=args.rho,
        a=args.a,
        b=args.b,
        rng=rng,
    )
    prefix = args.out_prefix
    with open(f"{prefix}_areas.csv", "w", encoding="utf-8") as fh:
        fh.write("area_id,cx,cy,cov1\n")
        for j, area_id in enumerate(table.ids):
            fh.write(
                f"{area_id},{_fmt(table.centroids[j, 0])},{_fmt(table.centroids[j, 1])},"
                f"{_fmt(table.X[j, 1])}\n"
            )
    with open(f"{prefix}_samples.csv", "w", encoding="utf-8") as fh:
        fh.write("area_id,value\n")
        for j, area_id in enumerate(table.ids):
            for v in table.samples[j]:
                fh.write(f"{area_id},{_fmt(float(v))}\n")
    truth["seed"] = args.seed
    with open(f"{prefix}_truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fabcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("predict", help="prediction interval for one sample CSV")
    p.add_argument("--input", required=True, help="CSV with a single 'value' column")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--tau2", type=float, default=None)
    p.add_argument("--precision", type=float, default=None,
                   help="prior precision 1/tau2; 0 selects the diffuse prior")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("fab", "dta"), default="fab")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("small-area", help="leave-one-area-out intervals per area")
    p.add_argument("--areas", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--alpha-mode", choices=("fixed", "exact"), default="fixed")
    p.add_argument("--method", choices=("fab", "dta", "both"), default="both")
    p.add_argument("--standardize", action="store_true",
                   help="center and scale covariate columns before fitting")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_small_area)

    p = sub.add_parser("simulate", help="Monte Carlo sweeps; writes a CSV report")
    p.add_argument("--experiment", required=True,
                   choices=("expected-width", "bayes-risk", "coverage", "bounds"))
    p.add_argument("--config", default=None, help="optional key=value defaults file")
    p.add_argument("--methods", default=None)
    p.add_argument("--n-list", dest="n_list", default=None)
    p.add_argument("--tau2-list", dest="tau2_list", default=None)
    p.add_argument("--theta-grid", dest="theta_grid", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--population", choices=("normal", "mixture"), default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen-data", help="synthetic area data from the spatial model")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--n-min", dest="n_min", type=int, default=3)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.add_argument("--beta", default="0,0", help="comma-separated intercept and slope")
    p.add_argument("--eta2", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--a", type=float, default=6.0)
    p.add_argument("--b", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CSVFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS


if __name__ == "__main__":
    sys.exit(main())
