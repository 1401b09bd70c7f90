"""Command line interface: prediction, small-area runs, sweeps, data generation.

Exit codes: 0 success, 1 invalid flags (an input path that cannot be read,
or an output path that cannot be written, counts as one), 2 malformed
input data, such as a non-numeric or non-finite field (reported with a
line number), an input with no data rows, or finite sample values whose
sum overflows (two values of 1e308 in one sample), 3 rank-deficient
covariate matrix. Every error is one ``error:`` line on stderr, and a
failed run leaves its output paths as they were. Rows whose fields are
all blank are skipped in every input CSV.

Every CSV is read and written by the ``csv`` module: a field is quoted
only where CSV needs it, such as an area id holding a comma or a double
quote, and such an id reads back as one field. ``small-area`` takes
``--alpha`` (default 0.25) only under ``--alpha-mode fixed``; with
``exact``, or outside (0, 1), it is exit 1 before any fit.
``simulate --experiment bayes-risk`` takes ``methods`` only as fab,dta,
``population`` only as normal and ``theta_grid`` only as 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import simulate
from .fab import fab_interval_from_precision
from .simulate import _fmt
from .small_area import AreaTable, area_pipeline, generate_table
from .working_model import posterior_mean_theta, WorkingModelParams

__all__ = [
    "EXIT_BAD_FLAGS",
    "EXIT_BAD_DATA",
    "EXIT_RANK_DEFICIENT",
    "CSVFormatError",
    "load_value_csv",
    "load_area_table",
    "build_parser",
    "main",
]

EXIT_BAD_FLAGS = 1
EXIT_BAD_DATA = 2
EXIT_RANK_DEFICIENT = 3


class CSVFormatError(Exception):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


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


def _open_output(path: str, mode: str = "w"):
    """``path`` opened for writing; a path that cannot be written is a bad flag (exit 1)."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _check_output(path: str) -> None:
    """Fail now if ``path`` cannot be written; leave the file system as it was."""
    created = not os.path.lexists(path)
    _open_output(path, "a").close()
    if created:
        os.remove(path)


def _data_rows(path: str, header_ok, header_msg: str) -> list[tuple[int, list[str]]]:
    """The ``(line_no, fields)`` data rows of the CSV at ``path``.

    The stripped header must satisfy ``header_ok``. Rows whose fields are
    all blank are skipped; every other row must be as wide as the header,
    and at least one must be left.
    """
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header_ok(header):
            raise CSVFormatError(path, 1, header_msg)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not any(field.strip() for field in row):
                continue
            if len(row) != len(header):
                raise CSVFormatError(path, line_no, f"expected {len(header)} columns, found {len(row)}")
            rows.append((line_no, row))
    if not rows:
        raise CSVFormatError(path, 2, "no data rows")
    return rows


def _finite(path: str, line_no: int, text: str) -> float:
    """``float(text)``; text that is not a finite number is a ``path:line:`` error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CSVFormatError(path, line_no, f"not a finite number: {text!r}")
    return value


def load_value_csv(path: str) -> np.ndarray:
    """Read a one-column CSV with header ``value``."""
    rows = _data_rows(path, lambda h: h == ["value"], "expected a single 'value' column header")
    return np.array([_finite(path, line_no, row[0]) for line_no, row in rows])


def load_area_table(areas_path: str, samples_path: str, standardize: bool = False) -> AreaTable:
    """Assemble an AreaTable from the two-file CSV schema.

    ``areas.csv``: ``area_id,cx,cy,cov1,...,covp`` (intercept added here).
    ``samples.csv``: ``area_id,value``. With ``standardize`` the covariate
    columns (not the intercept) are centered and scaled to unit variance.
    """
    rows = _data_rows(
        areas_path, lambda h: len(h) >= 3 and h[0] == "area_id",
        "expected header area_id,cx,cy[,cov1,...]",
    )
    nums = np.array([[_finite(areas_path, line_no, v) for v in row[1:]] for line_no, row in rows])
    index: dict[str, int] = {}
    for line_no, row in rows:
        area_id = row[0].strip()
        # csv.writer leaves a bare carriage return unquoted, so such an id would split its output row.
        if "\r" in area_id:
            raise CSVFormatError(areas_path, line_no, f"area id {area_id!r} holds a carriage return")
        if area_id in index:
            raise CSVFormatError(areas_path, line_no, f"duplicate area id {area_id!r}")
        index[area_id] = len(index)
    ids = list(index)

    samples: list[list[float]] = [[] for _ in ids]
    rows = _data_rows(samples_path, lambda h: h == ["area_id", "value"], "expected header area_id,value")
    for line_no, (area_id, value) in rows:
        area_id = area_id.strip()
        if area_id not in index:
            raise CSVFormatError(samples_path, line_no, f"unknown area id {area_id!r}")
        samples[index[area_id]].append(_finite(samples_path, line_no, value))
    for j, vals in enumerate(samples):
        if not vals:
            raise CSVFormatError(samples_path, 1, f"area {ids[j]!r} has no samples")

    columns = list(np.ascontiguousarray(nums[:, 2:].T))
    if standardize:
        for i, col in enumerate(columns):
            sd = float(np.std(col))
            if sd > 0.0:
                columns[i] = (col - float(np.mean(col))) / sd
    return AreaTable(
        ids=ids,
        samples=[np.array(v) for v in samples],
        X=np.column_stack([np.ones(len(ids))] + columns),
        centroids=np.ascontiguousarray(nums[:, :2]),
    )


# -- subcommands ----------------------------------------------------------------


def _cmd_predict(args: argparse.Namespace) -> int:
    sample = load_value_csv(args.input)
    precision = args.precision
    if precision is not None and args.tau2 is not None:
        raise ValueError("--tau2 and --precision cannot both be given")
    if precision is not None:
        if not math.isfinite(precision):
            raise ValueError(f"--precision must be finite, got {precision!r}")
        if precision < 0:
            raise ValueError("--precision must be nonnegative")
    elif args.tau2 is not None:
        if not args.tau2 > 0:
            raise ValueError("--tau2 must be positive")
        precision = 1.0 / args.tau2
        if math.isinf(precision):
            raise ValueError(f"--tau2 must be large enough that 1/tau2 is finite, got {args.tau2!r}")
    elif args.method == "fab":
        raise ValueError("--method fab needs --tau2 or --precision")
    # DTA is the FAB interval with zero prior precision
    mu, precision = (args.mu, precision) if args.method == "fab" else (0.0, 0.0)

    interval = fab_interval_from_precision(sample, mu, precision, args.alpha)
    # A precision whose reciprocal overflows is the diffuse prior, as 0 is.
    tau2 = 1.0 / precision if precision > 0.0 else math.inf
    if math.isfinite(tau2):
        theta_tilde = posterior_mean_theta(sample, WorkingModelParams(mu=mu, tau2=tau2, a=1.0, b=1.0))
    else:
        theta_tilde = float(np.mean(sample))

    if interval.k == 0:
        print("warning: floor(alpha*(n+1)) = 0; the region is the whole real line",
              file=sys.stderr)
    print(_dump_json({
        "method": args.method,
        "n": sample.size,
        "k": interval.k,
        "achieved_level": interval.achieved_level,
        "lower": interval.lower,
        "upper": interval.upper,
        "theta_tilde": theta_tilde,
    }))
    return 0


def _cmd_small_area(args: argparse.Namespace) -> int:
    if args.alpha_mode == "exact":
        if args.alpha is not None:
            raise ValueError("--alpha cannot be given with --alpha-mode exact")
        alpha_mode: float | str = "exact"
    else:
        alpha_mode = 0.25 if args.alpha is None else args.alpha
        if not 0.0 < alpha_mode < 1.0:
            raise ValueError(f"--alpha must be in (0, 1), got {alpha_mode!r}")
    table = load_area_table(args.areas, args.samples, standardize=args.standardize)
    if np.linalg.matrix_rank(table.X) < table.X.shape[1]:
        print("error: covariate matrix is rank deficient", file=sys.stderr)
        return EXIT_RANK_DEFICIENT
    methods = ("fab", "dta") if args.method == "both" else (args.method,)
    if args.output != "-":
        _check_output(args.output)  # an unwritable path fails before any fit
    records = area_pipeline(table, alpha_mode, methods)
    with contextlib.nullcontext(sys.stdout) if args.output == "-" else _open_output(args.output) as out:
        out.write("area_id,n,alpha_j,method,lower,upper,mu_j,tau2_j,fallback_flag\n")
        csv.writer(out, lineterminator="\n").writerows(
            (r.area_id, r.n, _fmt(r.alpha_j), r.method, _fmt(r.interval.lower),
             _fmt(r.interval.upper), _fmt(r.mu_j), _fmt(r.tau2_j), int(r.fallback))
            for r in records
        )
    return 0


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


def _split(kind):
    """Parser of comma-separated ``kind`` values; blank items are skipped."""
    return lambda text: tuple(kind(v) for v in text.split(",") if v.strip())


# Each SimConfig field with the parser of its text, from a config file or a flag.
_SIM_FIELDS = {
    "methods": _split(str.strip),
    "n_list": _split(int),
    "alpha": float,
    "theta_grid": _split(float),
    "mu": float,
    "tau2_list": _split(float),
    "replications": int,
    "seed": int,
    "population": str,
}


def _sim_config(args: argparse.Namespace) -> simulate.SimConfig:
    """Precedence: command-line flag > config-file entry > SimConfig default."""
    texts = _read_config_file(args.config) if args.config else {}
    for key in texts:
        if key not in _SIM_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
    texts.update((key, getattr(args, key)) for key in _SIM_FIELDS if getattr(args, key) is not None)
    values = {f.name: f.default for f in dataclasses.fields(simulate.SimConfig)}
    for key, text in texts.items():
        try:
            values[key] = _SIM_FIELDS[key](text)
        except ValueError:
            raise ValueError(f"{key}: cannot parse {text!r}") from None
    return simulate.SimConfig(**values)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _sim_config(args)
    if args.experiment == "bayes-risk":
        # The FAB/DTA ratio under the normal linking model, which draws theta itself.
        if set(config.methods) != {"fab", "dta"}:
            raise ValueError(f"bayes-risk needs methods fab,dta, got {','.join(config.methods)}")
        if config.population != "normal":
            raise ValueError(f"bayes-risk needs population normal, got {config.population}")
        if config.theta_grid != simulate.SimConfig.theta_grid:
            raise ValueError("bayes-risk draws theta ~ N(mu, tau2), so theta_grid must be 0, "
                             f"got {','.join(map(_fmt, config.theta_grid))}")
    _check_output(args.output)  # an unwritable report path fails before the run
    if args.experiment == "expected-width":
        report = simulate.expected_width(config)
    elif args.experiment == "coverage":
        report = simulate.coverage_experiment(config)
    elif args.experiment == "bayes-risk":
        report = simulate.bayes_risk_ratio(
            config.n_list, config.tau2_list, config.alpha, config.replications, config.seed,
            mu=config.mu,
        )
    else:
        report = simulate.bounds_profile(config)
    report.to_csv(args.output)
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
    if args.n_min < 1:
        raise ValueError(f"--n-min must be at least 1, got {args.n_min}")
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max {args.n_max} is below --n-min {args.n_min}")
    paths = [f"{args.out_prefix}_{name}" for name in ("areas.csv", "samples.csv", "truth.json")]
    for path in paths:
        _check_output(path)  # one unwritable path fails the run before any file is written
    areas_path, samples_path, truth_path = paths
    rng = np.random.default_rng(args.seed)
    beta = _split(float)(args.beta)
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
    with _open_output(areas_path) as fh:
        fh.write("area_id,cx,cy,cov1\n")
        csv.writer(fh, lineterminator="\n").writerows(
            (area_id, _fmt(table.centroids[j, 0]), _fmt(table.centroids[j, 1]), _fmt(table.X[j, 1]))
            for j, area_id in enumerate(table.ids)
        )
    with _open_output(samples_path) as fh:
        fh.write("area_id,value\n")
        csv.writer(fh, lineterminator="\n").writerows(
            (area_id, _fmt(float(v))) for area_id, sample in zip(table.ids, table.samples) for v in sample
        )
    truth["seed"] = args.seed
    with _open_output(truth_path) as fh:
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
    p.add_argument("--alpha", type=float, default=None,
                   help="error rate in (0, 1) of every area under --alpha-mode fixed "
                   "(default 0.25); not allowed with --alpha-mode exact")
    p.add_argument("--alpha-mode", choices=("fixed", "exact"), default="fixed",
                   help="exact: each area's alpha_j = floor((n_j+1)/3)/(n_j+1)")
    p.add_argument("--method", choices=("fab", "dta", "both"), default="both")
    p.add_argument("--standardize", action="store_true",
                   help="center and scale covariate columns before fitting")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_small_area)

    p = sub.add_parser("simulate", help="Monte Carlo sweeps; writes a CSV report")
    p.add_argument("--experiment", required=True,
                   choices=("expected-width", "bayes-risk", "coverage", "bounds"))
    p.add_argument("--config", default=None, help="optional key=value defaults file")
    for name in _SIM_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), help=(
            "comma-separated; a negative first value needs the = form, --theta-grid=-1,0,2"
            if name == "theta_grid" else None))
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen-data", help="synthetic area data from the spatial model")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--beta", default="0,0", help="comma-separated intercept and slope; "
                   "a negative intercept needs the = form, --beta=-1,0.5")
    p.add_argument("--eta2", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--a", type=float, default=6.0)
    p.add_argument("--b", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
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
    except OverflowError as exc:
        # Finite sample values whose sum leaves the double range, such as two of 1e308.
        print(f"error: input values overflow double precision ({exc})", file=sys.stderr)
        return EXIT_BAD_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS


if __name__ == "__main__":
    sys.exit(main())
