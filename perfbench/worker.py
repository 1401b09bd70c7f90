"""One benchmark process: set up a workload, time it, check its outputs.

Started by ``run.py`` with the BLAS pool pinned and ``src`` of the
checkout on the path. It prints ``PERFBENCH-READY`` once set-up (imports,
input generation, warm-up) is done, so the parent can time set-up from
process start, and ``PERFBENCH-RESULT <json>`` when it ends.

Right after the ready line it times the reference kernel (``refkernel.py``)
and prints ``PERFBENCH-REF <seconds> <scale>``; the parent multiplies the
set-up time by ``scale``, ``NOMINAL_S`` over the kernel's time, to express
it in reference seconds.

Untraced, the timed phase runs whole passes over the workload's inputs,
one round per input, until ``--seconds`` have passed, with the reference
kernel timed between rounds.
Traced, each input runs once untraced and once with wrappers on module
attributes installed; the per-layer figures come from the traced rounds
and the tracing overhead is the median difference of the two.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fabcp  # noqa: E402

if not Path(fabcp.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"fabcp was imported from {fabcp.__file__}, not from {SRC}")

from refkernel import NOMINAL_S, ReferenceKernel  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, FallbackLog  # noqa: E402

DEFAULT_SEED = 0


def blas_threads() -> dict[str, int]:
    """Threads of each OpenBLAS loaded into this process, by library file."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path.endswith(".so"):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_phase(w, seconds: float, fallback_log: FallbackLog, tracer: Tracer | None = None,
              reference: ReferenceKernel | None = None) -> dict:
    """Whole passes over the workload's inputs until ``seconds`` have passed.

    A round runs one input of the workload's pool; the phase stops only at
    the end of a pass, so every input is timed equally often whatever the
    speed of the code. With a reference kernel, the kernel is timed before
    the first round and after every round; ``refs`` holds, per round, the
    mean of the kernel times on either side of it. With a tracer every
    input runs twice in a row, untraced and then with the wrappers
    installed, so drift in the host's speed cancels from the tracing
    overhead and both kinds of round see the same inputs. Counts are taken
    over the first traced round, which always has the same input.
    """
    durations: dict[bool, list[tuple[int, float]]] = {False: [], True: []}
    refs: list[float] = []
    items = 0
    first = None
    start = time.perf_counter()
    ref_before = reference.time(w.ref_runs) if reference is not None else None
    index = 0
    while True:
        slot = index % w.pool
        for traced in (False, True) if tracer is not None else (False,):
            if traced:
                w.install_trace(tracer)
                fallbacks_before = sum(fallback_log.reasons.values())
            t0 = time.perf_counter()
            try:
                output, done = w.run_round(slot)
            finally:
                durations[traced].append((slot, time.perf_counter() - t0))
                if traced:
                    tracer.restore()
            if reference is not None:
                ref_after = reference.time(w.ref_runs)
                refs.append(0.5 * (ref_before + ref_after))
                ref_before = ref_after
            if not traced:
                items += done
            elif first is None:
                first = tracer.counts()
                first["items"] = done
                first["fallbacks"] = sum(fallback_log.reasons.values()) - fallbacks_before
            w.keep(slot, output)
        index += 1
        if slot == w.pool - 1 and time.perf_counter() - start >= seconds:
            break
    return {"durations": durations[False], "traced": durations[True], "refs": refs,
            "items": items, "first": first}


def per_input_median(durations: list[tuple[int, float]]) -> float:
    """Mean over the inputs of the median time of a round on each input."""
    by_slot: dict[int, list[float]] = {}
    for slot, dt in durations:
        by_slot.setdefault(slot, []).append(dt)
    return statistics.fmean(statistics.median(v) for v in by_slot.values())


def measure(w, args, fallback_log: FallbackLog,
            reference: ReferenceKernel) -> tuple[dict, dict, list[float]]:
    """The timed phase; returns metrics, the workload's own figures, round times.

    ``wall_s`` and ``items_per_s`` are in reference seconds (see
    ``refkernel.py``); the details keep them in raw seconds as well.
    """
    if not args.trace:
        phase = run_phase(w, args.seconds, fallback_log, reference=reference)
        durations = phase["durations"]
        scaled = [(slot, dt * NOMINAL_S / ref) for (slot, dt), ref in zip(durations, phase["refs"])]
        metrics = {
            "wall_s": per_input_median(scaled),
            "items_per_s": phase["items"] / sum(dt for _, dt in scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details = w.details(durations, phase["items"])
        details.update({
            "raw_wall_s": {"value": per_input_median(durations), "unit": "s"},
            "raw_items_per_s": {"value": phase["items"] / sum(dt for _, dt in durations),
                                "unit": "1/s"},
            "reference_s": phase["refs"],
        })
        return metrics, details, [dt for _, dt in durations]

    tracer = Tracer()
    phase = run_phase(w, args.seconds, fallback_log, tracer)
    untraced, traced = phase["durations"], phase["traced"]
    metrics = w.layer_metrics(tracer, len(traced), phase["first"])
    metrics["trace.untraced_round_s"] = per_input_median(untraced)
    metrics["trace.traced_round_s"] = per_input_median(traced)
    metrics["trace.overhead_s"] = statistics.median(
        t - u for (_, u), (_, t) in zip(untraced, traced))
    # The workload's own figures belong to the untraced run.
    return metrics, {}, [dt for _, dt in untraced]


def check_outputs(w, args) -> str | None:
    """Run the output checks; at the default seed also the reference comparison."""
    if args.inject_wrong:
        w.inject_wrong()
    w.check()
    if args.seed != DEFAULT_SEED or args.tiny:
        return None
    path = REFERENCE_DIR / f"{w.name}.json"
    if not args.write_reference:
        w.compare_reference(json.loads(path.read_text(encoding="utf-8")))
        return "compared"
    ref = w.reference()
    if "rows" in ref:
        # One record per line keeps the leave-one-area-out files reviewable.
        text = '{"rows": [\n' + ",\n".join(json.dumps(r) for r in ref["rows"]) + "\n]}"
    else:
        text = json.dumps(ref, indent=1)
    path.write_text(text + "\n", encoding="utf-8")
    return "written"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True, help="scratch directory")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    fallback_log = FallbackLog()
    logging.getLogger("fabcp.small_area").addHandler(fallback_log)
    w = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    w.warm_up()
    fallback_log.reasons.clear()
    print("PERFBENCH-READY", flush=True)
    reference = ReferenceKernel()
    ref_s = reference.median_time()
    print(f"PERFBENCH-REF {ref_s!r} {NOMINAL_S / ref_s!r}", flush=True)
    if args.setup_only:
        return 0

    metrics, details, round_s = measure(w, args, fallback_log, reference)
    ops, failed = w.ops, w.failed
    probe = w.probe()
    reference = check_outputs(w, args)

    probe_ops, probe_failed = (1, int(probe["failed"])) if probe else (0, 0)
    details.update({
        "round_s": round_s,
        "wrong_outputs": {"value": w.wrong, "unit": "count", "notes": w.wrong_notes},
        "failed_frac": {"value": (failed + probe_failed) / (ops + probe_ops),
                        "unit": "ratio", "base": ops + probe_ops},
        "errors": dict(w.errors),
        "fallback_reasons": dict(fallback_log.reasons),
        "probe": probe,
        "reference": reference,
        "environment": environment(),
    })
    result = {"correct": w.wrong == 0, "attempted": ops, "failed": failed,
              "metrics": metrics, "details": details}
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
