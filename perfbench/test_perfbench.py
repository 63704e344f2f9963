"""The benchmark's own tests.

Run from the repository root (a few minutes: the last tests are smoke
runs of every workload)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from ledger import Ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- inputs ---------------------------------------------------------------------


def test_solve_problems_are_deterministic_per_seed():
    assert inputs.SolveProblems(4).take(300) == inputs.SolveProblems(4).take(300)
    assert inputs.SolveProblems(4).take(300) != inputs.SolveProblems(5).take(300)


def test_http_requests_are_deterministic_per_seed():
    def stream(seed, connection):
        requests = inputs.HttpRequests(seed, connection)
        return [requests.next() for _ in range(120)]

    assert stream(3, 0) == stream(3, 0)
    assert stream(3, 0) != stream(4, 0)
    assert stream(3, 0) != stream(3, 1)
    assert {path for path, _ in stream(3, 1)} == set(inputs.HTTP_ENDPOINTS)


def test_dimeval_split_is_deterministic_per_seed():
    from repro.dimeval.benchmark import DimEvalBenchmark
    from repro.units import default_kb

    def prompts(seed):
        split = DimEvalBenchmark(default_kb(), seed=seed, train_per_task=0,
                                 eval_per_task=4).eval_split()
        return [example.prompt for example in split.all_examples()]

    assert prompts(2) == prompts(2)
    assert prompts(2) != prompts(3)
    split = DimEvalBenchmark(default_kb(), seed=2, train_per_task=0,
                             eval_per_task=4).eval_split()
    assert len(split.examples) == 7


def test_solve_open_has_no_repeated_structure():
    """Slotted prompts -- what the memo and the dedupe key on -- never
    repeat, and the two length families are exactly half each."""
    from repro.core.encoding import slotted_prompt
    from repro.quantity.grounder import grounder_for
    from repro.service.solver import slot_text
    from repro.units import default_kb

    grounder = grounder_for(default_kb())
    problems = inputs.SolveProblems(11).take(4000)
    prompts = [slotted_prompt(slot_text(text, grounder.extract(text)))
               for _, text in problems]
    assert len(set(prompts)) == len(prompts)
    families = [family for family, _ in problems]
    assert families.count("short") == families.count("long") == 2000


# -- statistics -----------------------------------------------------------------


def test_tail_refuses_a_percentile_the_sample_cannot_support():
    values = [float(v) for v in range(1, 1001)]
    assert stats.tail(values, 0.99) == 990.0
    with pytest.raises(ValueError):
        stats.tail(values[:999], 0.99)
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


# -- the ledger -----------------------------------------------------------------


class _Layers:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.003)


def test_self_time_subtracts_children():
    ledger = Ledger()
    ledger._patch(_Layers, "outer", "outer")
    ledger._patch(_Layers, "inner", "inner")
    try:
        start = time.perf_counter()
        _Layers().outer()
        end = time.perf_counter()
    finally:
        ledger.uninstall()
    outer = next(s for s in ledger.spans if s.name == "outer")
    inners = [s for s in ledger.spans if s.name == "inner"]
    assert len(inners) == 2 and all(s.parent == outer.id for s in inners)
    assert outer.self_time == pytest.approx(
        outer.duration - sum(s.duration for s in inners))
    assert 0.0015 < outer.self_time < outer.duration
    assert sum(s.self_time for s in ledger.spans) <= end - start
    assert _Layers.outer.__name__ == "outer"     # uninstalled


def test_layer_self_times_are_non_negative_and_fit_the_wall_time():
    """A real traced pass: per thread, self times partition the covered
    time, so they are never negative and never exceed the wall time."""
    run.warm_store()
    import workloads

    ledger = Ledger()
    ledger.install()
    try:
        start = time.perf_counter()
        workloads.dimeval_offline(seed=1, seconds=4.0, ledger=ledger)
        end = time.perf_counter()
    finally:
        ledger.uninstall()
    per_thread = defaultdict(float)
    for span in ledger.spans:
        assert span.self_time >= -1e-9, span.name
        per_thread[span.thread] += span.self_time
    assert per_thread
    assert all(total <= end - start for total in per_thread.values())


# -- the runner -----------------------------------------------------------------


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_every_workload_maps_every_end_to_end_metric():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert WORKLOADS == list(run.END_TO_END)
    for workload in WORKLOADS:
        assert list(run.END_TO_END[workload]) == names


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = _run("--workload", WORKLOADS[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failures_and_declared_names(workload, trace):
    result = _run("--workload", workload, "--seed", "1", "--seconds", "14",
                  "--trace", str(trace))
    assert result.returncode == 0, result.stderr[-2000:]
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())
