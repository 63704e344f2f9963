#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-open --seed 1 --seconds 30 --trace 0

``--trace 0`` is the untraced run: it prints every end-to-end metric of
``BENCHMARK.json``.  ``--trace 1`` is the traced run: it measures the
workload once untraced and once with every layer wrapped, and prints
every per-layer metric.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every metric with its unit, and a ``record`` line holds
the host fingerprint, per-phase counts and the workload's own metric
names.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
STORE = ROOT / "perfbench" / "out" / "artifacts"

#: How each end-to-end metric of ``BENCHMARK.json`` reads on each
#: workload: generic name -> the workload's own metric.
END_TO_END = {
    "solve-open": {
        "setup_s": "setup_s",
        "peak_rss_mb": "peak_rss_mb",
        "throughput_per_s": "solve_max_rps",
        "p50_ms": "solve_low_p50_ms",
        "tail_ms": "solve_low_tail_ms",
    },
    "http-mix": {
        "setup_s": "setup_s",
        "peak_rss_mb": "peak_rss_mb",
        "throughput_per_s": "http_rps",
        "p50_ms": "http_p50_ms",
        "tail_ms": "http_tail_ms",
    },
    "dimeval-offline": {
        "setup_s": "setup_s",
        "peak_rss_mb": "peak_rss_mb",
        "throughput_per_s": "dimeval_examples_per_s",
        "p50_ms": "dimeval_batch_p50_ms",
        "tail_ms": "dimeval_batch_tail_ms",
    },
}


def unit_of(name: str) -> str:
    """The unit a workload's own metric name ends in."""
    for suffix, unit in (("_ms", "ms"), ("_rps", "1/s"), ("_per_s", "1/s"),
                         ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit suffix on metric {name!r}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_revision() -> str:
    """HEAD's commit id, read from ``.git`` without running git; a
    checkout without history reports ``none``."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text(encoding="utf-8").strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def source_digest() -> str:
    """sha256 over the program's Python sources, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_vendor() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_vendor(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def warm_store() -> float:
    """Train the MICRO context into the checkout's store if it is not
    there yet; returns the seconds a cold train took (0 when warm)."""
    from repro.experiments import context
    from repro.experiments.artifacts import set_default_store
    from workloads import MODEL_SEED, PROFILE

    set_default_store(STORE)
    cold: list[bool] = []
    started = time.perf_counter()
    context.get_context(seed=MODEL_SEED, profile=context.profile_named(PROFILE),
                        on_cold_train=lambda: cold.append(True))
    return time.perf_counter() - started if cold else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if args.workload not in END_TO_END:
        print(f"perfbench: unknown workload {args.workload!r} (expected one "
              f"of {', '.join(END_TO_END)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from ledger import Ledger
    from workloads import WORKLOADS, InvalidRun

    spec = load_spec()
    cold_train_s = warm_store()
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            # Both passes share the run's length; end-to-end figures
            # never come from here, only the ledger and its overhead.
            # The rate ladder only feeds the record, not the ledger.
            options = {"ladder": False} if args.workload == "solve-open" else {}
            plain = workload(args.seed, args.seconds / 2, **options)
            ledger = Ledger()
            ledger.install()
            outcome = workload(args.seed, args.seconds / 2, ledger=ledger,
                               **options)
            rate = END_TO_END[args.workload]["throughput_per_s"]
            outcome.layers["trace.overhead_share"] = (
                1.0 - outcome.metrics[rate] / plain.metrics[rate])
            declared = spec["per_layer"]
            values = outcome.layers
            runs = [plain, outcome]
        else:
            outcome = workload(args.seed, args.seconds)
            declared = spec["end_to_end"]
            values = {generic: outcome.metrics[own] for generic, own
                      in END_TO_END[args.workload].items()}
            runs = [outcome]
    except InvalidRun as exc:
        print(f"perfbench: run invalid, not slow: {exc}", file=sys.stderr)
        return 3

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(names) - set(values))}, "
              f"undeclared {sorted(set(values) - set(names))}",
              file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        for name, value in outcome.metrics.items():
            print(f"  {args.workload}: {name:<40} {value:>14.6g} "
                  f"{unit_of(name)}")
    record = {
        "host": fingerprint(args),
        "cold_train_s": cold_train_s,
        "phases": outcome.phase_counts(),
        "checked": outcome.checked,
        "mismatched": sum(run.mismatched for run in runs),
        "workload_metrics": outcome.metrics,
        "notes": outcome.notes,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": all(run.mismatched == 0 for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
