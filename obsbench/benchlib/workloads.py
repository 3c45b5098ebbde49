"""Run one workload, untraced (end-to-end metrics) or traced (per-layer).

The traced run measures half of ``--seconds`` untraced and half traced,
so ``trace.overhead_ratio`` compares the two within one process.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from typing import Callable, Dict, List

from . import layers
from .stats import median
from .trace import Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "cells/s",
    "sweep_p50_ms": "ms",
    "req_per_s": "1/s",
    "char_p50_ms": "ms",
    "char_tail_ms": "ms",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
}

# serve-mixed: the request class each layer's per-op metrics are taken over.
SERVE_CLASS_OF_METRIC = {
    "index.queries": "query",
    "index.query_ms": "query",
    "index.appends": "write",
    "index.append_ms": "write",
    "models.": "write",
    "runtime.": "write",
    "core.": "write",
    "service.app": "char",
    "service.http.dispatch_ms.characterize": "char",
    "service.http.dispatch_ms.query": "query",
    "service.http.dispatch_ms.upload": "write",
    "service.http.dispatch_ms.append": "write",
}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def result(problems: List[str], attempted: int, failed: int, metrics: Dict[str, float],
           units: Dict[str, str], say: Callable[[str], None]) -> dict:
    for problem in problems[:10]:
        say(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def per_layer_units() -> Dict[str, str]:
    return {name: unit for name, (unit, _) in layers.PER_LAYER.items()}


def run_sweep(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
              say: Callable[[str], None]) -> dict:
    from .sweeps import SweepRun

    tracer = Tracer()
    if trace:
        layers.install_program(tracer)
    run = SweepRun(workload, seed, workdir)
    try:
        run.setup()
        say(f"setup_s samples: {', '.join(f'{s:.3f}' for s in run.setup_seconds)}")
        if not trace:
            run.run_ops(seconds)
            say(f"sweep workers: {run.workers}; op ms: {', '.join(f'{s * 1e3:.0f}' for s in run.op_seconds)}")
            metrics, notes = run.end_to_end()
            for note in notes:
                say(note)
            metrics["peak_rss_mb"] = peak_rss_mb()
            return result(run.problems, run.attempted, run.failed, metrics, END_TO_END_UNITS, say)

        run.run_ops(seconds / 2)
        untraced = list(run.op_seconds)
        ops: Dict[str, str] = {}

        def timed():
            op_id = f"op{len(ops) + 1}"
            ops[op_id] = "sweep"
            tracer.default_op = op_id  # background encode work belongs to this op
            return tracer.op(op_id, "sweep")

        run.timed = timed
        tracer.enabled = True
        run.run_ops(seconds / 2)
        tracer.enabled = False
        traced = run.op_seconds[len(untraced):]
        metrics = layers.layer_metrics(tracer, ops)
        metrics["trace.overhead_ratio"] = median(traced) / median(untraced) - 1.0
        problems = run.problems + layers.check_predictions(workload, tracer, metrics)
        say(f"sweep workers: {run.workers}; ops untraced/traced: {len(untraced)}/{len(traced)}")
        return result(problems, run.attempted, run.failed, metrics, per_layer_units(), say)
    finally:
        tracer.uninstall()


def run_serve(seed: int, seconds: float, trace: bool, workdir: str,
              say: Callable[[str], None]) -> dict:
    from .serve import ServeRun

    tracer = Tracer()
    spans_path = os.path.join(workdir, "child-spans.json") if trace else None
    t0 = time.perf_counter()
    run = ServeRun(seed, workdir, tracer if trace else None, spans_path)
    say(f"index corpus and query pool embedded in {time.perf_counter() - t0:.3f} s")
    try:
        run.setup()
        say(f"setup_s samples: {', '.join(f'{s:.3f}' for s in run.setup_seconds)}")
        say(f"served sweep workers: {run.served_workers}")
        if not trace:
            wall = run.run(seconds)
            run.end_checks()
            run.stop()
            metrics, notes = run.end_to_end(wall)
            for note in notes + [f"probe recall {run.recall:.3f}"] + run.refusals[:5]:
                say(note)
            metrics["peak_rss_mb"] = peak_rss_mb()
            return result(run.problems, run.attempted, run.failed, metrics, END_TO_END_UNITS, say)

        layers.install_client(tracer, run.client_cls)
        run.run(seconds / 2)
        before = {kind: len(samples) for kind, samples in run.latencies.items()}
        ops: Dict[str, str] = {}

        def op_context(op_id: str, kind: str):
            ops[op_id] = kind
            return tracer.op(op_id, kind)

        tracer.enabled = True
        run.child.signal(signal.SIGUSR1)
        time.sleep(0.5)  # let the child's handler run before traced traffic
        run.run(seconds / 2, op_context=op_context)
        tracer.enabled = False
        untraced = [s for k, v in run.latencies.items() for s in v[: before[k]]]
        traced = [s for k, v in run.latencies.items() for s in v[before[k]:]]
        run.end_checks()
        run.stop()
        tracer.load(spans_path)
        metrics = layers.layer_metrics(tracer, ops, SERVE_CLASS_OF_METRIC)
        metrics["trace.overhead_ratio"] = median(traced) / median(untraced) - 1.0
        problems = run.problems + layers.check_predictions("serve-mixed", tracer, metrics)
        return result(problems, run.attempted, run.failed, metrics, per_layer_units(), say)
    finally:
        run.stop()
        tracer.uninstall()
