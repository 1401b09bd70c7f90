"""fabcp benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload loo_j50 --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``loo_j50``,
``loo_j150_cli``, ``mc_sweep``, ``predict``. Each runs as one worker
process and one closed-loop caller, with the BLAS pool pinned to one
thread and ``FABCP_THREADS`` unset. The seed only generates inputs.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics of ``BENCHMARK.json``. Times are in reference seconds:
the host's speed drifts, so each raw time is scaled by ``NOMINAL_S`` over
the time of a fixed reference kernel run next to it (``refkernel.py``).
The raw figures are on the details line.

- ``setup_s``: process start to the first timed operation (interpreter,
  ``import fabcp``, input generation, warm-up), scaled by the reference
  kernel timed right after it; the median of three set-ups made in
  separate processes, one before the timed phase, the measuring worker's
  own and one after it;
- ``wall_s``: time of one round, the workload's unit of work (one
  table, one ``small-area`` run, one sweep, one batch of requests of one
  size class), scaled by the reference kernel timed before and after it:
  the median over the rounds on each input of the workload's pool,
  averaged over the pool. The timed phase runs whole passes over the
  pool, so every input weighs the same;
- ``items_per_s``: work completed per reference second of rounds: target
  areas (``loo_*``), replications summed over cells and experiments
  (``mc_sweep``), sample values (``predict``);
- ``peak_rss_mb``: peak resident memory of the worker.

With ``--trace 1`` it carries the per-layer metrics instead (a layer that
a workload does not reach reads 0). The line before it holds the
workload's own figures (``areas_per_s``, ``reps_per_s``, ``call_p50_us``
and ``call_p99_us`` with their sample count, ``values_per_s``,
``fallback_frac``, ``failed_frac``, ``wrong_outputs``), the fall-back and
error reasons, and the environment (nproc, BLAS threads, CPU model,
Python, numpy and scipy versions).

``correct`` is false when any output fails a check: the invariants run at
every seed, and at seed 0 the outputs are also compared with the
references committed under ``perfbench/reference`` (regenerate one with
``--write-reference`` only when a change is meant to alter the outputs).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("loo_j50", "loo_j150_cli", "mc_sweep", "predict")
# Set-ups timed in separate processes, before and after the measuring
# worker, so that their median spans the run and not only its start. One
# on each side keeps set-ups to a small share of a run's wall time.
SETUP_BEFORE, SETUP_AFTER = 1, 1
# The benchmark must end within 180 s whatever the worker does.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FABCP_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, float, str]:
    """Run one worker to its end; returns its set-up time, the factor that
    turns it into reference seconds, and its later output.

    Set-up time runs from process start to the worker's ready line. The
    worker is killed and reaped on every way out of this function.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, bufsize=0,
    )
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise BenchError("worker did not finish set-up in time")
            # Unbuffered, so readline takes no bytes past the ready line.
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"worker exited with {proc.wait()} during set-up")
            if line.strip() == b"PERFBENCH-READY":
                setup_s = time.perf_counter() - t0
                break
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        out = out.decode("utf-8")
        refs = [ln for ln in out.splitlines() if ln.startswith("PERFBENCH-REF ")]
        if not refs:
            raise BenchError("worker did not time the reference kernel")
        return setup_s, float(refs[0].split()[2]), out
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += [f"--{flag.replace('_', '-')}" for flag in ("tiny", "inject_wrong", "write_reference")
             if getattr(args, flag)]

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        argv += ["--workdir", workdir]
        setups = [run_worker(argv + ["--setup-only"], deadline)[:2]
                  for _ in range(SETUP_BEFORE)]
        setup_s, scale, out = run_worker(argv, deadline)
        setups.append((setup_s, scale))
        setups += [run_worker(argv + ["--setup-only"], deadline)[:2]
                   for _ in range(SETUP_AFTER)]
    tagged = [ln for ln in out.splitlines() if ln.startswith("PERFBENCH-RESULT ")]
    if not tagged:
        raise BenchError("worker printed no result")
    result = json.loads(tagged[-1][len("PERFBENCH-RESULT "):])

    measured = dict(result["metrics"], setup_s=statistics.median(s * k for s, k in setups))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if args.trace:
            value = measured.get(m["name"], 0.0)
        elif m["name"] in measured:
            value = measured[m["name"]]
        else:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    details = dict(result["details"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   setup_samples_s=[s for s, _ in setups],
                   setup_scale=[k for _, k in setups],
                   raw_setup_s=statistics.median(s for s, _ in setups))
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    return details, final


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fabcp benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input; for the self-test, not for measurement")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="shift one output before the checks; they must count it")
    ap.add_argument("--write-reference", action="store_true",
                    help="at seed 0, write the reference outputs instead of comparing")
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exit that unwinds, so the worker is stopped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fabcp").is_dir():
        print(f"error: no fabcp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        details, final = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
