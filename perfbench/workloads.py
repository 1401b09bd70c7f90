"""The four benchmark workloads: inputs, timed rounds, output checks, layers.

Each workload builds a pool of inputs from the seed during set-up, then
runs *rounds*: one fixed unit of work on one input of the pool, timed as a
whole. The timed phase makes whole passes over the pool. A round calls into
fabcp through module attributes, so a traced run can wrap them. Outputs
are kept outside the timed region and checked once timing is over.

- ``loo_j50``: one round is ``area_pipeline(table, "exact", ("fab", "dta"))``
  on one of four criterion-11 tables (J = 50) drawn from the seed.
- ``loo_j150_cli``: one round is ``fabcp small-area --alpha-mode exact
  --method both`` on a ``fabcp gen-data --J 150`` map, both run in process
  through ``fabcp.cli.main`` with the output going to a temporary file.
- ``mc_sweep``: one round is the expected-width grid, a coverage run on
  the normal and on the two-point mixture population, and the Bayes-risk
  grid of criterion 6.
- ``predict``: one round is a batch of one-sample requests of one size
  class (n <= 40, n = 10^4, n = 10^6), each computed the way ``fabcp
  predict`` computes it, without the CSV I/O.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import logging
import math
import statistics
import struct
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from fabcp import baselines, cli, fab, simulate, small_area, working_model

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance of the leave-one-area-out reference comparison: the
# gate a refactor of the pipeline must meet against the old code.
LOO_REL_TOL = 1e-9
# Coverage checks allow this many binomial standard errors.
COVERAGE_SIGMAS = 5.0


def _rel_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= LOO_REL_TOL * abs(b)


class FallbackLog(logging.Handler):
    """Counts the pipeline's fall-backs to DTA by reason, from its log."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.reasons: Counter[str] = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        if "falling back" in str(record.msg) and record.args:
            exc = record.args[-1]
            self.reasons[f"{type(exc).__name__}: {exc}"[:160]] += 1


class Workload:
    """Common bookkeeping: operations attempted and failed, wrong outputs."""

    name = ""
    # Inputs in the pool; round ``slot`` runs input ``slot``.
    pool = 1
    # Runs of the reference kernel (about 0.1 s each) timed between rounds.
    ref_runs = 1

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.wrong = 0
        self.wrong_notes: list[str] = []

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed and yields None."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must keep measuring
            self.failed += 1
            key = f"{type(exc).__name__}: {exc}"[:160]
            if key not in self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors[key] += 1
            return None

    def flag(self, note: str) -> None:
        """Count one output that fails a check."""
        self.wrong += 1
        if len(self.wrong_notes) < 10:
            self.wrong_notes.append(note)

    # Hooks each workload defines. run_round is the timed part: it returns
    # the round's output and the work items it completed. durations are
    # (slot, seconds) pairs, one per round. keep stores the
    # output, untimed; check, inject_wrong and the reference hooks run once
    # timing is over; install_trace and layer_metrics serve the traced run.
    def warm_up(self) -> None: ...
    def run_round(self, slot: int) -> tuple[object, int]: ...
    def keep(self, slot: int, output: object) -> None: ...
    def check(self) -> None: ...
    def inject_wrong(self) -> None: ...
    def reference(self) -> dict: ...
    def compare_reference(self, ref: dict) -> None: ...
    def install_trace(self, tracer) -> None: ...
    def layer_metrics(self, tracer, rounds: int, first: dict) -> dict: ...
    def details(self, durations: list[tuple[int, float]], items: int) -> dict: ...

    def probe(self) -> dict | None:
        """An operation run once outside the timed rounds, reported on its own."""
        return None


# -- leave-one-area-out checks (shared by both LOO workloads) --------------------


def _loo_row(rec) -> dict:
    return {
        "area_id": rec.area_id, "method": rec.method, "n": rec.n, "alpha": rec.alpha_j,
        "lower": rec.interval.lower, "upper": rec.interval.upper,
        "mu": rec.mu_j, "tau2": rec.tau2_j, "fallback": bool(rec.fallback),
        "achieved": rec.interval.achieved_level, "k": rec.interval.k,
    }


def _row_key(row: dict) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in row.values())


def check_loo_rows(w: Workload, ids: list[str], samples: list[np.ndarray], rows: list[dict]) -> None:
    """Invariants of one pipeline output against its input table."""
    targets = [(a, y) for a, y in zip(ids, samples) if y.size >= 2]
    expected = [(a, m) for a, _ in targets for m in ("fab", "dta")]
    if [(r["area_id"], r["method"]) for r in rows] != expected:
        w.flag("records are not one fab/dta pair per area with n >= 2, in table order")
        return
    for (area_id, y), fab_row, dta_row in zip(targets, rows[0::2], rows[1::2]):
        n = y.size
        alpha = math.floor((n + 1) / 3.0) / (n + 1)
        k = math.floor(alpha * (n + 1))
        total = math.fsum(y)
        for row in (fab_row, dta_row):
            if row["n"] != n or row["alpha"] != alpha:
                w.flag(f"{area_id}/{row['method']}: n or exact-coverage alpha differs")
            elif row["achieved"] is not None and (
                row["k"] != k or row["achieved"] != 1.0 - k / (n + 1)
            ):
                w.flag(f"{area_id}/{row['method']}: achieved level is not 1 - k/(n+1)")
        if not dta_row["lower"] <= total / n <= dta_row["upper"]:
            w.flag(f"{area_id}/dta: interval misses the sample mean")
        if fab_row["fallback"]:
            if (fab_row["lower"], fab_row["upper"]) != (dta_row["lower"], dta_row["upper"]):
                w.flag(f"{area_id}/fab: fallback interval differs from DTA")
            continue
        mu, tau2 = fab_row["mu"], fab_row["tau2"]
        if not (math.isfinite(mu) and math.isfinite(tau2) and tau2 > 0.0):
            w.flag(f"{area_id}/fab: conformal prior not finite and positive")
            continue
        theta = (mu / tau2 + total) / (1.0 / tau2 + n)
        if not fab_row["lower"] <= theta <= fab_row["upper"]:
            w.flag(f"{area_id}/fab: interval misses theta_tilde")


def _shift_first_fab(rows: list[dict]) -> None:
    row = next(r for r in rows if r["method"] == "fab")
    shift = row["upper"] - row["lower"] + 1.0
    row["lower"] += shift
    row["upper"] += shift


def _loo_reference(rows: list[dict]) -> dict:
    keys = ("area_id", "method", "lower", "upper", "mu", "tau2", "fallback")
    return {"rows": [[r[k] for k in keys] for r in rows]}


def _compare_loo_reference(w: Workload, rows: list[dict] | None, ref: dict) -> None:
    if not rows:
        w.flag("no output to compare with the reference")
        return
    got = _loo_reference(rows)["rows"]
    if len(got) != len(ref["rows"]):
        w.flag(f"reference has {len(ref['rows'])} records, output has {len(got)}")
        return
    for g, r in zip(got, ref["rows"]):
        same_keys = g[0] == r[0] and g[1] == r[1] and g[6] == r[6]
        if not same_keys or not all(_rel_close(a, b) for a, b in zip(g[2:6], r[2:6])):
            w.flag(f"{g[0]}/{g[1]}: differs from the reference by more than {LOO_REL_TOL:g}")


_LOO_SPANS = (
    (small_area, "area_pipeline", "small_area.area_pipeline"),
    (small_area, "sq_exp_weights", "small_area.sq_exp_weights"),
    (small_area, "sar_covariance", "small_area.sar_covariance"),
    (small_area, "estimate_ab", "small_area.estimate_ab"),
    (small_area, "fit_mean_model", "small_area.fit_mean_model"),
    (small_area, "conditional_params", "small_area.conditional_params"),
    (small_area, "fab_interval_from_precision", "small_area.interval"),
    (small_area, "dta_interval", "small_area.interval"),
)


def _install_loo_trace(tracer) -> None:
    for module, attr, name in _LOO_SPANS:
        tracer.wrap(module, attr, name)

    def count_nfev(args, result, dt):
        tracer.tally["nfev"] += int(result.nfev)

    tracer.wrap(small_area, "minimize", "small_area.minimize", observe=count_nfev)


def _loo_layers(tracer, rounds: int, first: dict) -> dict:
    calls, child_calls = first["calls"], first["child_calls"]
    fits = calls["small_area.fit_mean_model"]
    ab_fits = calls["small_area.minimize"]
    return {
        "small_area.ab_fit_s": tracer.inclusive["small_area.estimate_ab"] / rounds,
        "small_area.ab_fit_nfev": first["tally"]["nfev"] / ab_fits if ab_fits else 0.0,
        "small_area.sar_cov_s": tracer.inclusive["small_area.sar_covariance"] / rounds,
        "small_area.sar_cov_calls_per_area":
            calls["small_area.sar_covariance"] / first["items"] if first["items"] else 0.0,
        "small_area.rho_evals_per_fit":
            child_calls["small_area.fit_mean_model", "small_area.sar_covariance"] / fits
            if fits else 0.0,
        "small_area.mean_fit_self_s": tracer.self_time["small_area.fit_mean_model"] / rounds,
        "small_area.conditional_self_s":
            tracer.self_time["small_area.conditional_params"] / rounds,
        "small_area.weights_s": tracer.inclusive["small_area.sq_exp_weights"] / rounds,
        "small_area.interval_s": tracer.inclusive["small_area.interval"] / rounds,
        "small_area.glue_s": tracer.self_time["small_area.area_pipeline"] / rounds,
        "small_area.fallbacks": float(first["fallbacks"]),
    }


def _loo_details(rows_by_input: dict, durations: list[tuple[int, float]], items: int) -> dict:
    fab_rows = [r for rows in rows_by_input.values() for r in rows if r["method"] == "fab"]
    fallbacks = sum(r["fallback"] for r in fab_rows)
    return {
        "areas_per_s": {"value": items / sum(dt for _, dt in durations), "unit": "1/s"},
        "fallback_frac": {
            "value": fallbacks / len(fab_rows) if fab_rows else 0.0, "unit": "ratio",
            "base": len(fab_rows),
        },
    }


class LooJ50(Workload):
    """Criterion-11 tables through the library's leave-one-area-out pipeline."""

    name = "loo_j50"
    # Four tables: a pass takes about 6 s, so every run times each table
    # several times, and table-to-table differences average out.
    POOL = 4

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        J = 8 if tiny else 50
        self.tables = [self._table(J, rng) for _ in range(2 if tiny else self.POOL)]
        self.pool = len(self.tables)
        self.rows: dict[int, list[dict]] = {}

    @staticmethod
    def _table(J: int, rng: np.random.Generator):
        table, _ = small_area.generate_table(
            J=J, n_range=(3, 10), beta=[1.0, 1.0], eta2=0.5, rho=0.7, a=6.0, b=4.0,
            rng=rng, extent=8.0,
        )
        return table

    def warm_up(self) -> None:
        table = self._table(6, np.random.default_rng(0))
        small_area.area_pipeline(table, "exact", ("fab", "dta"))

    def run_round(self, slot: int):
        table = self.tables[slot]
        records = self.attempt(small_area.area_pipeline, table, "exact", ("fab", "dta"))
        if records is None:
            return None, 0
        return records, int(np.count_nonzero(table.n >= 2))

    def keep(self, slot: int, output) -> None:
        if output is None:
            return
        rows = [_loo_row(r) for r in output]
        if slot not in self.rows:
            self.rows[slot] = rows
        elif [_row_key(r) for r in rows] != [_row_key(r) for r in self.rows[slot]]:
            self.flag(f"table {slot}: a repeated run gave different records")

    def check(self) -> None:
        for slot, rows in self.rows.items():
            table = self.tables[slot]
            check_loo_rows(self, table.ids, table.samples, rows)

    def inject_wrong(self) -> None:
        _shift_first_fab(self.rows[min(self.rows)])

    def reference(self) -> dict:
        return _loo_reference(self.rows[0])

    def compare_reference(self, ref: dict) -> None:
        _compare_loo_reference(self, self.rows.get(0), ref)

    def install_trace(self, tracer) -> None:
        _install_loo_trace(tracer)

    def layer_metrics(self, tracer, rounds, first):
        return _loo_layers(tracer, rounds, first)

    def details(self, durations, items):
        return _loo_details(self.rows, durations, items)


def _parse_samples(path: Path) -> tuple[list[str], list[np.ndarray]]:
    values: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            values.setdefault(row["area_id"], []).append(float(row["value"]))
    return list(values), [np.array(v) for v in values.values()]


def _parse_intervals(data: bytes) -> list[dict]:
    rows = []
    for row in csv.DictReader(data.decode("utf-8").splitlines()):
        rows.append({
            "area_id": row["area_id"], "method": row["method"], "n": int(row["n"]),
            "alpha": float(row["alpha_j"]), "lower": float(row["lower"]),
            "upper": float(row["upper"]), "mu": float(row["mu_j"]),
            "tau2": float(row["tau2_j"]), "fallback": row["fallback_flag"] == "1",
            "achieved": None, "k": None,
        })
    return rows


class LooJ150Cli(Workload):
    """``fabcp gen-data`` then ``fabcp small-area`` on a larger map, in process."""

    name = "loo_j150_cli"
    # A round takes 12-16 s, and the host's speed moves within seconds, so
    # each side of a round is gauged over about a second, not a tenth.
    ref_runs = 10

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__()
        self.workdir = workdir
        J = 12 if tiny else 150
        self.areas, self.samples_csv = self._gen_data(J, seed, "map")
        self.ids, self.samples = _parse_samples(self.samples_csv)
        self.targets = sum(y.size >= 2 for y in self.samples)
        self.output = workdir / "intervals.csv"
        self.first_bytes: bytes | None = None
        self.rows: list[dict] = []

    def _gen_data(self, J: int, seed: int, stem: str) -> tuple[Path, Path]:
        prefix = self.workdir / stem
        rc = cli.main(["gen-data", "--J", str(J), "--seed", str(seed), "--out-prefix", str(prefix)])
        if rc != 0:
            raise RuntimeError(f"fabcp gen-data exited with {rc}")
        return Path(f"{prefix}_areas.csv"), Path(f"{prefix}_samples.csv")

    def _small_area(self, areas: Path, samples: Path, output: Path) -> bool:
        rc = cli.main([
            "small-area", "--areas", str(areas), "--samples", str(samples),
            "--alpha-mode", "exact", "--method", "both", "--output", str(output),
        ])
        if rc != 0:
            raise RuntimeError(f"fabcp small-area exited with {rc}")
        return True

    def warm_up(self) -> None:
        areas, samples = self._gen_data(8, 0, "warmup")
        self._small_area(areas, samples, self.workdir / "warmup_intervals.csv")

    def run_round(self, slot: int):
        ok = self.attempt(self._small_area, self.areas, self.samples_csv, self.output)
        return ok, self.targets if ok else 0

    def keep(self, slot: int, output) -> None:
        if output is None:
            return
        data = self.output.read_bytes()
        if self.first_bytes is None:
            self.first_bytes = data
            self.rows = _parse_intervals(data)
        elif data != self.first_bytes:
            self.flag("a repeated small-area run wrote different bytes")

    def check(self) -> None:
        if self.first_bytes is not None:
            check_loo_rows(self, self.ids, self.samples, self.rows)

    def inject_wrong(self) -> None:
        _shift_first_fab(self.rows)

    def reference(self) -> dict:
        return _loo_reference(self.rows)

    def compare_reference(self, ref: dict) -> None:
        _compare_loo_reference(self, self.rows, ref)

    def install_trace(self, tracer) -> None:
        _install_loo_trace(tracer)
        # cli bound these names at import; small_area.area_pipeline is not reached.
        tracer.wrap(cli, "area_pipeline", "small_area.area_pipeline")
        tracer.wrap(cli, "load_area_table", "cli.load_area_table")
        tracer.wrap(cli, "_cmd_small_area", "cli.small_area")

    def layer_metrics(self, tracer, rounds, first):
        out = _loo_layers(tracer, rounds, first)
        out["cli.load_s"] = tracer.inclusive["cli.load_area_table"] / rounds
        # What _cmd_small_area does besides loading and the pipeline: the
        # rank check and writing the output file.
        out["cli.write_s"] = tracer.self_time["cli.small_area"] / rounds
        return out

    def details(self, durations, items):
        return _loo_details({0: self.rows}, durations, items)


# -- Monte Carlo simulator -----------------------------------------------------


_ALL_METHODS = ("fab", "dta", "pivot_z", "pivot_t", "eb")


class McSweep(Workload):
    """The simulator's three experiments; only ``fabcp.simulate`` does the work."""

    name = "mc_sweep"
    REPS = 10_000

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__()
        self.workdir = workdir
        reps = 200 if tiny else self.REPS
        base = 5 * seed
        self.width = simulate.SimConfig(
            methods=_ALL_METHODS, n_list=(3, 7, 11, 15, 19), alpha=0.25,
            theta_grid=(0.0, 1.0, 2.0, 3.0, 4.0), tau2_list=(0.5,),
            replications=reps, seed=base,
        )
        self.coverage = [
            simulate.SimConfig(
                methods=_ALL_METHODS, n_list=(3, 7, 11), alpha=0.25, theta_grid=(0.0, 2.0),
                tau2_list=(0.5,), replications=reps, seed=base + 1 + i, population=pop,
            )
            for i, pop in enumerate(("normal", "mixture"))
        ]
        self.risk = dict(n_list=(3, 7, 11, 15, 19), tau2_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
                         alpha=0.25, replications=reps, seed=base + 3)
        # n = 40 exceeds the 32 draws a replication stream reserves.
        self.beyond_stride = simulate.SimConfig(
            methods=("fab", "dta"), n_list=(40,), alpha=0.25, replications=64, seed=base + 4,
        )
        cells_w = len(self.width.n_list) * len(self.width.theta_grid)
        cells_c = sum(len(c.n_list) * len(c.theta_grid) for c in self.coverage)
        cells_r = len(self.risk["n_list"]) * len(self.risk["tau2_grid"])
        self.reps_per_round = reps * (cells_w + cells_c + cells_r)
        # Uniforms each replication consumes: n for a width cell, n + 1 for a
        # coverage cell (the next observation) or a risk cell (theta).
        self.uniforms_used = reps * (
            sum(n * len(self.width.theta_grid) for n in self.width.n_list)
            + sum((n + 1) * len(c.theta_grid) for c in self.coverage for n in c.n_list)
            + sum((n + 1) * len(self.risk["tau2_grid"]) for n in self.risk["n_list"])
        )
        self.first_csv: list[bytes] | None = None
        self.reports: list = []

    def warm_up(self) -> None:
        small = simulate.SimConfig(methods=_ALL_METHODS, n_list=(3,), replications=16, seed=1)
        simulate.expected_width(small)
        simulate.coverage_experiment(small)
        simulate.bayes_risk_ratio((3,), (0.5,), 0.25, 16, 1)

    def run_round(self, slot: int):
        reports = [
            self.attempt(simulate.expected_width, self.width),
            *(self.attempt(simulate.coverage_experiment, c) for c in self.coverage),
            self.attempt(simulate.bayes_risk_ratio, **self.risk),
        ]
        if any(r is None for r in reports):
            return None, 0
        return reports, self.reps_per_round

    def keep(self, slot: int, output) -> None:
        if output is None:
            return
        csvs = []
        for i, report in enumerate(output):
            path = self.workdir / f"report{i}.csv"
            report.to_csv(str(path))
            csvs.append(path.read_bytes())
        if self.first_csv is None:
            self.first_csv = csvs
            self.reports = list(output)
        elif csvs != self.first_csv:
            self.flag("a repeated sweep wrote different report bytes")

    def check(self) -> None:
        if not self.reports:
            return
        width, normal, mixture, risk = self.reports
        for row in width.rows:
            if row.method in ("fab", "dta") and row.inf_width_count != 0:
                self.flag(f"width n={row.n}: bounded conformal interval reported infinite")
        # Under the normal population conformal coverage is exactly
        # 1 - k/(n+1); the mixture's atoms allow ties, which only raise it.
        for report, config, exact in zip((normal, mixture), self.coverage, (True, False)):
            for row in report.rows:
                if row.method not in ("fab", "dta"):
                    continue
                k = math.floor(config.alpha * (row.n + 1))
                level = 1.0 - k / (row.n + 1)
                sigma = math.sqrt(level * (1.0 - level) / config.replications)
                low = level - COVERAGE_SIGMAS * sigma
                high = level + COVERAGE_SIGMAS * sigma if exact else 1.0
                if not low <= row.coverage <= high:
                    self.flag(f"{row.method} n={row.n} coverage {row.coverage} outside "
                              f"{COVERAGE_SIGMAS:g} sigma of {level}")
        if len(risk.rows) != 3 * len(self.risk["n_list"]) * len(self.risk["tau2_grid"]):
            self.flag("Bayes-risk report lacks fab, dta and ratio rows for every cell")

    def inject_wrong(self) -> None:
        rows = list(self.reports[1].rows)
        rows[0] = dataclasses.replace(rows[0], coverage=rows[0].coverage - 0.5)
        self.reports[1] = simulate.SimReport(rows=tuple(rows))

    def reference(self) -> dict:
        names = ("expected_width", "coverage_normal", "coverage_mixture", "bayes_risk")
        return {n: hashlib.sha256(b).hexdigest() for n, b in zip(names, self.first_csv)}

    def compare_reference(self, ref: dict) -> None:
        if self.first_csv is None:
            self.flag("no output to compare with the reference")
            return
        for name, digest in self.reference().items():
            if ref.get(name) != digest:
                self.flag(f"{name}: report CSV bytes differ from the reference")

    def probe(self) -> dict:
        """The n = 40 width cell, run once outside the timed rounds.

        Replication streams reserve 32 draws, so this cell raises until the
        simulator lifts that ceiling. It is kept out of the workload's
        operation count, whose operations must all succeed, and reported on
        its own so the defect stays visible.
        """
        try:
            simulate.expected_width(self.beyond_stride)
        except Exception as exc:  # reported, not fatal
            return {"operation": "expected_width n=40", "failed": True,
                    "error": f"{type(exc).__name__}: {exc}"[:160]}
        return {"operation": "expected_width n=40", "failed": False}

    def install_trace(self, tracer) -> None:
        tracer.wrap(simulate, "expected_width", "simulate.expected_width")
        tracer.wrap(simulate, "coverage_experiment", "simulate.coverage_experiment")
        tracer.wrap(simulate, "bayes_risk_ratio", "simulate.bayes_risk_ratio")
        tracer.wrap(simulate, "ndtri", "simulate.ndtri")

        def count_draws(args, result, dt):
            tracer.tally["uniforms_drawn"] += result.size

        make_generator = simulate.Generator

        class TracedGenerator:
            def __init__(self, bit_generator):
                gen = make_generator(bit_generator)
                self.random = tracer.span("simulate.random", gen.random, observe=count_draws)

        tracer.replace(simulate, "Generator", TracedGenerator)

    def layer_metrics(self, tracer, rounds, first):
        experiments = ("simulate.expected_width", "simulate.coverage_experiment",
                       "simulate.bayes_risk_ratio")
        drawn = first["tally"]["uniforms_drawn"]
        return {
            "simulate.expected_width_s": tracer.inclusive["simulate.expected_width"] / rounds,
            "simulate.coverage_s": tracer.inclusive["simulate.coverage_experiment"] / rounds,
            "simulate.bayes_risk_s": tracer.inclusive["simulate.bayes_risk_ratio"] / rounds,
            "simulate.uniforms_s": tracer.inclusive["simulate.random"] / rounds,
            "simulate.normals_s": tracer.inclusive["simulate.ndtri"] / rounds,
            "simulate.bounds_stats_s": sum(tracer.self_time[e] for e in experiments) / rounds,
            "simulate.uniform_use_ratio": self.uniforms_used / drawn if drawn else 0.0,
        }

    def details(self, durations, items):
        return {"reps_per_s": {"value": items / sum(dt for _, dt in durations), "unit": "1/s"}}


# -- one-sample prediction -----------------------------------------------------


# Alphas of the small requests. With n <= 40, 0.01 always gives k = 0 and
# 0.05 does below n = 19, so about a quarter of them get the whole line.
_ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.25, 0.5)


def _request(rng: np.random.Generator, n: int, alphas=_ALPHAS) -> tuple:
    """One request: method, sample, prior mean, prior precision, alpha.

    No record of real traffic exists, so the mix is an assumption that
    exercises every branch of ``fabcp predict`` evenly: both methods
    equally often, and a quarter of the priors diffuse (precision 0, the
    FAB request that must reproduce DTA).
    """
    method = "fab" if rng.random() < 0.5 else "dta"
    precision = 0.0 if rng.random() < 0.25 else float(np.exp(rng.normal()))
    sample = 2.0 * rng.normal() + float(np.exp(0.5 * rng.normal())) * rng.normal(size=n)
    return method, sample, float(rng.normal()), precision, float(rng.choice(alphas))


def predict_one(method: str, sample: np.ndarray, mu: float, precision: float, alpha: float):
    """Interval and theta_tilde as ``fabcp predict`` computes them."""
    if method == "fab":
        iv = fab.fab_interval_from_precision(sample, mu, precision, alpha)
    else:
        iv = baselines.dta_interval(sample, alpha)
    if method == "fab" and precision > 0.0:
        theta = working_model.posterior_mean_theta(
            sample, working_model.WorkingModelParams(mu=mu, tau2=1.0 / precision, a=1.0, b=1.0)
        )
    else:
        theta = float(np.mean(sample))
    return iv.lower, iv.upper, theta, iv.achieved_level, iv.k


def _digest(outputs: list) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(b"-" if out is None else struct.pack("<ddddq", *out))
    return h.hexdigest()


class Predict(Workload):
    """One-sample requests in three size classes, one class per round.

    Small requests (n in [2, 40]) measure per-call overhead, which the
    pipeline pays once per area; large ones measure per-value cost. Each
    class is sized to take about a third of a pass on a 2-vCPU Xeon
    (about 1.3 s each), so that a change to either cost shows in the
    end-to-end figures and no class dominates them: 40 000 small
    requests, 240 with n = 10^4, and one FAB and one DTA request with
    n = 10^6.
    """

    name = "predict"
    CLASSES = ("n<=40", "n=1e4", "n=1e6")
    SMALL, MEDIUM, LARGE_N = 40_000, 240, 10**6
    pool = len(CLASSES)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        small, medium, large_n = (200, 4, 10**4) if tiny else (self.SMALL, self.MEDIUM, self.LARGE_N)
        self.batches = [
            [_request(rng, int(rng.integers(2, 41))) for _ in range(small)],
            [_request(rng, 10**4, (0.05, 0.1, 0.25)) for _ in range(medium)],
            # The FAB request has an informative prior.
            [("fab", rng.normal(size=large_n), 0.0, 2.0, 0.25),
             ("dta", rng.normal(size=large_n), 0.0, 0.0, 0.25)],
        ]
        self.latencies: list[float] = []
        self.first: dict[int, list] = {}
        self.first_digest: dict[int, str] = {}
        self.small_calls = {"fab": [], "dta": []}
        self.large = {"fab": [0, 0.0], "dta": [0, 0.0]}

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        for _ in range(50):
            predict_one(*_request(rng, int(rng.integers(2, 41))))
        predict_one(*_request(rng, 10**4))

    def run_round(self, slot: int):
        batch = self.batches[slot]
        outputs = []
        latencies = self.latencies
        clock = time.perf_counter
        for req in batch:
            t0 = clock()
            outputs.append(self.attempt(predict_one, *req))
            latencies.append(clock() - t0)
        values = sum(req[1].size for req, out in zip(batch, outputs) if out is not None)
        return outputs, values

    def keep(self, slot: int, output) -> None:
        digest = _digest(output)
        if slot not in self.first:
            self.first[slot], self.first_digest[slot] = output, digest
        elif digest != self.first_digest[slot]:
            self.flag(f"{self.CLASSES[slot]}: a repeated batch gave different outputs")

    def check(self) -> None:
        for slot, outputs in self.first.items():
            for (method, sample, mu, precision, alpha), out in zip(self.batches[slot], outputs):
                if out is None:
                    continue
                lower, upper, theta, achieved, k = out
                n = sample.size
                k_expected = math.floor(alpha * (n + 1))
                if k != k_expected or achieved != 1.0 - k_expected / (n + 1):
                    self.flag(f"{method} n={n} alpha={alpha}: achieved level is not 1 - k/(n+1)")
                if not lower <= theta <= upper:
                    self.flag(f"{method} n={n}: interval misses theta_tilde")
                if method == "fab" and precision == 0.0:
                    dta = baselines.dta_interval(sample, alpha)
                    if (lower, upper, achieved, k) != (dta.lower, dta.upper, dta.achieved_level,
                                                       dta.k):
                        self.flag(f"n={n}: zero-precision FAB differs from DTA")

    def inject_wrong(self) -> None:
        outputs = self.first[0]
        i = next(i for i, out in enumerate(outputs) if out is not None and out[4])
        lower, upper, theta, achieved, k = outputs[i]
        shift = upper - lower + 1.0
        outputs[i] = (lower + shift, upper + shift, theta, achieved, k)

    def reference(self) -> dict:
        return {
            "outputs_sha256": {c: self.first_digest.get(s) for s, c in enumerate(self.CLASSES)},
            "requests": {c: len(b) for c, b in zip(self.CLASSES, self.batches)},
        }

    def compare_reference(self, ref: dict) -> None:
        if ref != self.reference():
            self.flag("request outputs differ from the reference bit for bit")

    def install_trace(self, tracer) -> None:
        def observer(method):
            def observe(args, result, dt):
                n = len(args[0])
                if n <= 40:
                    self.small_calls[method].append(dt)
                elif n >= 10**4:
                    self.large[method][0] += n
                    self.large[method][1] += dt
            return observe

        tracer.wrap(fab, "fab_interval_from_precision", "fab.interval", observer("fab"))
        tracer.wrap(baselines, "dta_interval", "baselines.dta_interval", observer("dta"))
        tracer.wrap(working_model, "posterior_mean_theta", "working_model.posterior_mean_theta")

    def layer_metrics(self, tracer, rounds, first):
        def p50_us(values):
            return statistics.median(values) * 1e6 if values else 0.0

        def rate(method):
            values, seconds = self.large[method]
            return values / seconds if seconds else 0.0

        return {
            "fab.small_call_us": p50_us(self.small_calls["fab"]),
            "baselines.dta_small_call_us": p50_us(self.small_calls["dta"]),
            "fab.large_values_per_s": rate("fab"),
            "baselines.dta_large_values_per_s": rate("dta"),
            "working_model.theta_s":
                tracer.inclusive["working_model.posterior_mean_theta"] / rounds,
        }

    def details(self, durations, items):
        lat = sorted(self.latencies)
        q = statistics.quantiles(lat, n=100) if len(lat) >= 2 else lat * 99
        total_s = sum(dt for _, dt in durations)
        values = [sum(req[1].size for req in b) for b in self.batches]
        return {
            "call_p50_us": {"value": statistics.median(lat) * 1e6, "unit": "us",
                            "samples": len(lat)},
            "call_p99_us": {"value": q[98] * 1e6, "unit": "us", "samples": len(lat)},
            "values_per_s": {"value": items / total_s, "unit": "1/s"},
            # Share of the timed phase and of the values each class takes.
            "class_shares": {
                c: {"time": sum(dt for s, dt in durations if s == slot) / total_s,
                    "values": values[slot] / sum(values)}
                for slot, c in enumerate(self.CLASSES)
            },
        }


WORKLOADS = {w.name: w for w in (LooJ50, LooJ150Cli, McSweep, Predict)}
