"""The three workloads: ``solve-open``, ``http-mix`` and ``dimeval-offline``.

Each workload function sets the program up from a warm artifact store
(several times, reporting the median), warms it outside the timed
window, drives its timed phases for the given number of seconds, checks
outputs against a reference built by a different decode schedule, and
returns an :class:`Outcome`.  With a :class:`~ledger.Ledger` installed
it also derives the per-layer metrics of that run.

The trained context is always the MICRO profile at model seed 0; the
workload seed only shapes the inputs.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import resource
import threading
import time
from dataclasses import dataclass, field

import repro.experiments.context as context_module
import repro.quantity.grounder as grounder_module
import repro.units as units_module
from repro.dimeval.benchmark import DimEvalBenchmark
from repro.engine import EngineConfig, EvaluationEngine
from repro.engine.runner import BatchRunner
from repro.service import DimensionService, ServiceConfig, build_server
from repro.service.scheduler import ContinuousBatcher
from repro.service.solver import MWPSolver

from inputs import SOLVE_TEMPLATES, HttpRequests, SolveProblems, solve_template
from ledger import Ledger
from loadgen import (
    KeepAliveClient,
    Op,
    Phase,
    check_limits,
    closed_loop_futures,
    closed_loop_http,
    generator_threads_allowed,
    open_loop,
    wait_done,
)
from stats import median, percentile, tail

MODEL_SEED = 0
PROFILE = "micro"
#: Run-to-completion batch size: the paper's Table VII path, and the
#: schedule the ``/solve`` references are decoded with.
FIXED_BATCH = 32
#: Set-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 5

# -- solve-open --------------------------------------------------------------
#: Open-loop rates, frozen at about 35% and 70% of the saturated rate
#: the program sustained on a 2-core host when this benchmark was
#: written (roughly 650 requests/s).  They never adapt to the code
#: under test, so a faster scheduler shows as lower latency at the
#: same load.
SOLVE_LOW_RPS = 225.0
SOLVE_HIGH_RPS = 450.0
#: Futures kept outstanding in the saturation phase.
SOLVE_OUTSTANDING = 64
#: Rate ladder for ``solve_slo_rps``: rung k runs at LOW * 2**(k/8), so
#: rung 0 is the low rate, rung 8 the high rate, and steps are 9%.
LADDER_STEPS_PER_DOUBLING = 8
LADDER_TOP_RUNG = 13
#: The latency limit ``solve_slo_rps`` holds the tail to.
SOLVE_LIMIT_MS = 50.0
SOLVE_TAIL_Q = 0.90
#: Decoded responses checked against the fixed-batch reference, per run.
SOLVE_CHECK_SAMPLE = 1024
#: Load-generator lateness (p99) beyond which a run is invalid.
LATENESS_LIMIT_MS = 20.0
#: Rounds of (low, high, saturation) phases; interleaving them spreads
#: each phase over the whole run, so slow drift on a shared host hits
#: every phase alike.
SOLVE_ROUNDS = 5

# -- http-mix ----------------------------------------------------------------
HTTP_CONNECTIONS = 2
HTTP_TAIL_Q = 0.95

# -- dimeval-offline ---------------------------------------------------------
DIMEVAL_PER_TASK = 64
DIMEVAL_TAIL_Q = 0.90
#: The DimEval references decode in batches of another size, so every
#: completion is checked against a different batch composition.
DIMEVAL_REFERENCE_BATCH = 23

#: The lru-cached KB builder, captured before any wrapping so set-up can
#: reset it.
_DEFAULT_KB = units_module.default_kb


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule; the figures
    would measure the generator, not the program."""


MISMATCH = "output differs from the reference"


def mark_mismatch(op: Op) -> None:
    op.ok, op.error = False, MISMATCH


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    metrics: dict[str, float]
    phases: list[Phase]
    checked: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(len(phase.ops) for phase in self.phases)

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases)

    @property
    def mismatched(self) -> int:
        return sum(op.error == MISMATCH for phase in self.phases
                   for op in phase.ops)

    def phase_counts(self) -> dict[str, dict[str, int]]:
        counts: dict[str, dict[str, int]] = {}
        for phase in self.phases:
            entry = counts.setdefault(
                phase.name, {"attempted": 0, "succeeded": 0, "failed": 0})
            entry["attempted"] += len(phase.ops)
            entry["failed"] += phase.failed
            entry["succeeded"] += len(phase.ops) - phase.failed
        return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def timed_setups(build, teardown):
    """Run ``build`` SETUP_REPEATS times from cold in-process caches;
    keep the last result.  Returns (result, seconds each, windows)."""
    seconds, windows, built = [], [], None
    for _ in range(SETUP_REPEATS):
        if built is not None:
            teardown(built)
        context_module._CACHE.clear()
        _DEFAULT_KB.cache_clear()
        start = time.perf_counter()
        built = build()
        end = time.perf_counter()
        seconds.append(end - start)
        windows.append((start, end))
    return built, seconds, windows


def trained_lm():
    profile = context_module.profile_named(PROFILE)
    ctx = context_module.get_context(seed=MODEL_SEED, profile=profile)
    return ctx.models.as_dimperc(name=f"DimPerc-{PROFILE}")


def reference_solver(grounder, lm) -> MWPSolver:
    """A solver whose decodes run in fixed batches with no memo -- the
    run-to-completion schedule the references come from."""
    return MWPSolver(grounder, lm, BatchRunner(EngineConfig(
        batch_size=FIXED_BATCH, completion_cache_size=0)))


# -- solve-open ----------------------------------------------------------------


def ladder_rate(rung: int) -> float:
    return SOLVE_LOW_RPS * 2.0 ** (rung / LADDER_STEPS_PER_DOUBLING)


def _lateness_p99_ms(phases: list[Phase]) -> float:
    lateness = [1e3 * op.lateness for phase in phases for op in phase.ops]
    return percentile(lateness, 0.99) if lateness else 0.0


def _rung_passes(phase: Phase) -> tuple[bool, float]:
    """(meets the limit without a growing backlog, tail in ms)."""
    latencies = [1e3 * op.latency if op.ok else float("inf")
                 for op in phase.ops]
    observed = tail(latencies, SOLVE_TAIL_Q)
    third = max(1, len(latencies) // 3)
    growing = median(latencies[-third:]) > 2.0 * median(latencies[:third]) + 1.0
    return observed <= SOLVE_LIMIT_MS and not growing, observed


def solve_open(seed: int, seconds: float, ledger: Ledger | None = None,
               ladder: bool = True) -> Outcome:
    """Unique problems through ``MWPSolver.prepare`` and
    ``ContinuousBatcher.submit``, called from this one thread."""
    check_limits(threads=1, connections=0)

    def build():
        kb = units_module.default_kb()
        grounder = grounder_module.grounder_for(kb)
        lm = trained_lm()
        solver = MWPSolver(grounder, lm, BatchRunner(EngineConfig(
            completion_cache_size=0)))
        batcher = ContinuousBatcher(lm, finish=solver.finish,
                                    max_inflight_rows=32)
        return solver, batcher

    (solver, batcher), setup_seconds, setup_windows = timed_setups(
        build, lambda built: built[1].close())
    problems = SolveProblems(seed)
    arrivals = random.Random(f"arrivals:{seed}")

    def stream():
        while True:
            yield from problems.take(256)

    payloads = stream()

    def issue(text):
        return batcher.submit(solver.prepare(text))

    def run(phase: Phase) -> Phase:
        wait_done(phase.ops, 120)
        return phase

    try:
        run(closed_loop_futures("warm-up", issue, payloads,
                                SOLVE_OUTSTANDING, 0.5))
        gc.collect()        # set-up garbage is not the timed window's
        budget = seconds * (0.8 if ladder else 1.0) / SOLVE_ROUNDS
        phases: list[Phase] = []
        for _ in range(SOLVE_ROUNDS):
            phases.append(run(open_loop("low", issue, payloads, SOLVE_LOW_RPS,
                                        0.40 * budget, arrivals)))
            phases.append(run(open_loop("high", issue, payloads,
                                        SOLVE_HIGH_RPS, 0.25 * budget,
                                        arrivals)))
            phases.append(run(closed_loop_futures(
                "saturation", issue, payloads, SOLVE_OUTSTANDING,
                0.35 * budget)))
        notes: dict = {"tail_percentile": SOLVE_TAIL_Q,
                       "latency_limit_ms": SOLVE_LIMIT_MS,
                       "rates_rps": {"low": SOLVE_LOW_RPS,
                                     "high": SOLVE_HIGH_RPS}}
        slo = None
        if ladder:
            # Walk the ladder up from the high rate until a rung misses
            # the limit (or down, when the high rate itself misses).
            rung, step, results = LADDER_STEPS_PER_DOUBLING, 1, {}
            while 0 <= rung <= LADDER_TOP_RUNG:
                phase = run(open_loop("ladder", issue, payloads,
                                      ladder_rate(rung), seconds * 0.04,
                                      arrivals))
                phases.append(phase)
                results[rung] = _rung_passes(phase)
                passes = results[rung][0]
                if passes:
                    slo = max(slo or 0.0, ladder_rate(rung))
                if not passes and rung == LADDER_STEPS_PER_DOUBLING:
                    step = -1
                elif passes == (step < 0):
                    break
                rung += step
            notes["ladder"] = {f"{ladder_rate(k):.1f}": {
                "passes": ok, "tail_ms": round(observed, 3)}
                for k, (ok, observed) in sorted(results.items())}

        lateness = _lateness_p99_ms([p for p in phases if p.rate])
        if ledger is None and lateness > LATENESS_LIMIT_MS:
            raise InvalidRun(f"load-generator lateness p99 {lateness:.1f} ms "
                             f"exceeds {LATENESS_LIMIT_MS} ms")

        # Reference: a seeded sample re-solved through fixed batches.
        answered = [op for phase in phases for op in phase.ops if op.ok]
        sample = random.Random(f"check:{seed}").sample(
            answered, min(SOLVE_CHECK_SAMPLE, len(answered)))
        reference = reference_solver(solver.grounder, solver.lm).solve_batch(
            [(op.result.prompt, op.result.quantities) for op in sample])
        for op, expected in zip(sample, reference):
            if canonical(op.result.to_wire()) != canonical(expected.to_wire()):
                mark_mismatch(op)
    finally:
        batcher.close()

    def of(name):
        return [phase for phase in phases if phase.name == name]

    def pooled(name):
        return [v for phase in of(name) for v in phase.latencies_ms()]

    saturated = of("saturation")
    completed = sum(op.ok and op.done <= phase.end
                    for phase in saturated for op in phase.ops)
    max_rps = completed / sum(phase.end - phase.start for phase in saturated)
    metrics = {
        "solve_low_p50_ms": percentile(pooled("low"), 0.5),
        "solve_low_tail_ms": tail(pooled("low"), SOLVE_TAIL_Q),
        "solve_high_p50_ms": percentile(pooled("high"), 0.5),
        "solve_high_tail_ms": tail(pooled("high"), SOLVE_TAIL_Q),
        "solve_max_rps": max_rps,
        "solve_sat_p50_ms": percentile(pooled("saturation"), 0.5),
        "solve_sat_tail_ms": tail(pooled("saturation"), SOLVE_TAIL_Q),
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    if slo is not None:
        metrics["solve_slo_rps"] = slo
    outcome = Outcome(metrics, phases, checked=len(sample), notes=notes)
    if ledger is not None:
        layers = ledger.layer_metrics([(p.start, p.end) for p in phases])
        high = [(p.start, p.end) for p in of("high")]
        sat = [(p.start, p.end) for p in saturated]
        layers["service.scheduler.queue_wait_p50_ms"] = ledger.queue_wait_p50(
            ledger.sched_waits, high)
        sat_spans = ledger.in_window(sat)
        sat_seconds = sum(end - start for start, end in sat)
        busy = ledger.covered(sat_spans, "continuous-batcher") / sat_seconds
        layers["service.scheduler.worker_busy_share"] = busy
        layers["trace.unattributed_share"] = 1.0 - busy
        # What the decode counters alone would attribute: the model's
        # prefill and step passes, without KV copies and bookkeeping.
        notes["saturation_model_share"] = sum(
            s.duration for s in sat_spans if s.name in (
                "llm.model.infer_step", "llm.model.infer_prefill")) / sat_seconds
        layers["loadgen.lateness_p99_ms"] = lateness
        layers.update(ledger.setup_ms(setup_windows))
        outcome.layers = layers
    return outcome


# -- http-mix ------------------------------------------------------------------


class _TracedStream:
    """A connection's request stream, each request tagged with a fresh
    trace id so the server's dispatch time can be matched to it."""

    def __init__(self, requests: HttpRequests, prefix: str):
        self._requests = requests
        self._ids = (f"{prefix}{n:08d}" for n in itertools.count())

    def next(self):
        path, body = self._requests.next()
        return (next(self._ids), path, body)


def _check_http(service, phase: Phase) -> int:
    """Compare every answered request with a reference: the same request
    dispatched in-process one at a time (no transport, no concurrency),
    and for ``/solve`` a fixed-batch decode instead of the memo the
    service answered from.  Returns how many were checked."""
    solver = service.solver
    fixed = reference_solver(solver.grounder, solver.lm)
    answered = [op for op in phase.ops if op.ok]
    prepared = {op.result[1]["text"]: solver.prepare(op.result[1]["text"])
                for op in answered if op.tag == "/solve"}
    prompts = list(dict.fromkeys(prompt for prompt, _ in prepared.values()))
    completions = dict(zip(prompts, fixed.runner.generate_all(solver.lm,
                                                              prompts)))
    for op in answered:
        trace_id, body, reply = op.result
        if op.tag == "/solve":
            item = prepared[body["text"]]
            expected = {"text": body["text"],
                        **solver.finish(item, completions[item[0]]).to_wire()}
        else:
            status, expected = service.dispatch(op.tag, body)
            if status != 200:
                mark_mismatch(op)
                continue
        if canonical(reply) != canonical(json.loads(canonical(expected))):
            mark_mismatch(op)
    return len(answered)


def http_mix(seed: int, seconds: float, ledger: Ledger | None = None) -> Outcome:
    """A closed loop over persistent keep-alive connections to a real
    ``build_server`` service with the default configuration."""
    connections = min(HTTP_CONNECTIONS, generator_threads_allowed())
    check_limits(threads=connections, connections=connections)

    def build():
        service = DimensionService(ServiceConfig(port=0, profile=PROFILE,
                                                 seed=MODEL_SEED))
        server = build_server(service)
        thread = threading.Thread(target=server.serve_forever,
                                  name="http-accept", daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        clients = [KeepAliveClient(host, port) for _ in range(connections)]
        return service, server, thread, clients

    def teardown(built):
        _, server, thread, clients = built
        for client in clients:
            client.close()
        server.shutdown()
        server.server_close()
        thread.join(30)

    built, setup_seconds, setup_windows = timed_setups(build, teardown)
    service, _, _, clients = built
    try:
        # Warm-up: every /solve template decodes once, so the memo
        # answers them from here on, and every endpoint runs.
        rng = random.Random(f"http-warm:{seed}")
        for index in range(SOLVE_TEMPLATES):
            clients[0].post("/solve", {"text": solve_template(index, rng)})
        warm = [HttpRequests(seed + 7919, c) for c in range(connections)]
        for _ in range(12):
            for client, requests in zip(clients, warm):
                client.post(*requests.next())
        gc.collect()
        memo = service.engine.runner.completion_cache
        conversions = service.engine.conversion_cache
        memo_before, conv_before = memo.stats(), conversions.stats()
        streams = [_TracedStream(HttpRequests(seed, c), f"c{c}")
                   for c in range(connections)]
        phase = closed_loop_http("http", clients, streams, seconds)
        memo_after, conv_after = memo.stats(), conversions.stats()
        checked = _check_http(service, phase)
    finally:
        teardown(built)

    completed = [op for op in phase.ops if op.ok and op.done <= phase.end]
    rps = len(completed) / (phase.end - phase.start)

    def p50(tag):
        return percentile(phase.latencies_ms(tag), 0.5)

    metrics = {
        "http_rps": rps,
        "http_p50_ms": percentile(phase.latencies_ms(), 0.5),
        "http_tail_ms": tail(phase.latencies_ms(), HTTP_TAIL_Q),
        "http_ground_p50_ms": p50("/ground"),
        "http_convert_p50_ms": p50("/convert"),
        "http_solve_p50_ms": p50("/solve"),
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome = Outcome(metrics, [phase], checked=checked,
                      notes={"tail_percentile": HTTP_TAIL_Q,
                             "connections": connections})
    if ledger is not None:
        layers = ledger.layer_metrics([(phase.start, phase.end)])

        def hit_rate(before, after):
            hits = after.hits - before.hits
            lookups = hits + after.misses - before.misses
            return hits, (hits / lookups if lookups else 0.0)

        hits, layers["engine.completion_cache.hit_rate"] = hit_rate(
            memo_before, memo_after)
        layers["service.scheduler.memo_hits"] = float(hits)
        _, layers["engine.conversion_cache.hit_rate"] = hit_rate(
            conv_before, conv_after)
        transport, client_total, dispatch_total = [], 0.0, 0.0
        for op in phase.ops:
            dispatched = ledger.dispatch_by_trace.get(op.result[0]) \
                if op.ok else None
            if dispatched is not None:
                transport.append(1e3 * (op.latency - dispatched))
                client_total += op.latency
                dispatch_total += dispatched
        layers["service.http.transport.p50_ms"] = percentile(transport, 0.5)
        layers["trace.unattributed_share"] = 1.0 - dispatch_total / client_total
        layers.update(ledger.setup_ms(setup_windows))
        outcome.layers = layers
    return outcome


# -- dimeval-offline -----------------------------------------------------------


class _RecordingLM:
    """The trained LM, keeping each ``generate_batch`` call's prompts,
    completions and timing for the reference check."""

    def __init__(self, lm):
        self.lm = lm
        self.name = lm.name
        self.cache_key = lm.cache_key
        self.calls: list[tuple[float, float, list, list]] = []

    def generate(self, prompt):
        return self.lm.generate(prompt)

    def generate_batch(self, prompts):
        start = time.perf_counter()
        completions = self.lm.generate_batch(prompts)
        self.calls.append((start, time.perf_counter(), prompts, completions))
        return completions


def dimeval_offline(seed: int, seconds: float,
                    ledger: Ledger | None = None) -> Outcome:
    """Repeated ``EvaluationEngine.evaluate_model`` passes over a seeded
    seven-task DimEval eval split, in fixed batches with no memo."""
    check_limits(threads=1, connections=0)

    def build():
        lm = trained_lm()
        engine = EvaluationEngine(EngineConfig(
            batch_size=FIXED_BATCH, completion_cache_size=0))
        return lm, engine

    (lm, engine), setup_seconds, setup_windows = timed_setups(
        build, lambda built: None)
    split = DimEvalBenchmark(_DEFAULT_KB(), seed=seed, train_per_task=0,
                             eval_per_task=DIMEVAL_PER_TASK).eval_split()
    model = _RecordingLM(lm)
    engine.evaluate_model(model, split)             # warm-up pass
    model.calls.clear()
    gc.collect()

    passes: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        engine.evaluate_model(model, split)
        passes.append((start, time.perf_counter()))

    prompts = list(dict.fromkeys(
        prompt for _, _, batch, _ in model.calls for prompt in batch))
    expected = dict(zip(prompts, BatchRunner(EngineConfig(
        batch_size=DIMEVAL_REFERENCE_BATCH,
        completion_cache_size=0)).generate_all(lm, prompts)))
    phase = Phase("passes", passes[0][0], passes[-1][1])
    batch_ms = []
    for start, end, batch, completions in model.calls:
        batch_ms.append(1e3 * (end - start))
        for prompt, completion in zip(batch, completions):
            op = Op(due=start, sent=start, done=end, ok=True, tag="example")
            if completion != expected[prompt]:
                mark_mismatch(op)
            phase.ops.append(op)

    rates = [len(split) / (end - start) for start, end in passes]
    metrics = {
        "dimeval_examples_per_s": median(rates),
        "dimeval_batch_p50_ms": percentile(batch_ms, 0.5),
        "dimeval_batch_tail_ms": tail(batch_ms, DIMEVAL_TAIL_Q),
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome = Outcome(metrics, [phase], checked=len(phase.ops),
                      notes={"examples_per_pass": len(split),
                             "passes": len(passes),
                             "tail_percentile": DIMEVAL_TAIL_Q})
    if ledger is not None:
        layers = ledger.layer_metrics(passes)
        covered = ledger.covered(ledger.in_window(passes), "MainThread")
        layers["trace.unattributed_share"] = 1.0 - covered / sum(
            end - start for start, end in passes)
        layers.update(ledger.setup_ms(setup_windows))
        outcome.layers = layers
    return outcome


WORKLOADS = {
    "solve-open": solve_open,
    "http-mix": http_mix,
    "dimeval-offline": dimeval_offline,
}
