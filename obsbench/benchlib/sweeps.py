"""The ``sweep-cold`` and ``sweep-restart`` workloads (thread engine).

An op builds a fresh ``Observatory`` at the default ``RuntimeConfig`` (plus
a disk tier for ``sweep-restart``) over a fixed small corpus and sweeps
two models, ``bert`` (row-wise serializer) and ``doduo`` (column-wise
serializer), over the single-model properties, with ``journal_dir`` at a
fresh directory.  The seed draws only each op's model and property order.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import checks
from .stats import median

MODELS = ("bert", "doduo")
COLD_PROPERTIES = (
    "row_order_insignificance",
    "column_order_insignificance",
    "join_relationship",
    "functional_dependencies",
    "sample_fidelity",
    "perturbation_robustness",
    "heterogeneous_context",
)
# The disk tier holds plain arrays only; functional_dependencies embeds
# cells into dicts that stay in memory, so a restart would re-encode them.
RESTART_PROPERTIES = tuple(p for p in COLD_PROPERTIES if p != "functional_dependencies")
CORPUS_SEED = 0
SETUP_REPEATS = 3
MIN_OPS = 3
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "reference", "sweep_cells.json")


def sizes():
    from repro.core.framework import DatasetSizes

    # join_relationship needs 3 pairs and functional_dependencies one
    # database; together they are most of a cold op at these sizes.
    return DatasetSizes(
        wikitables_tables=2,
        spider_databases=1,
        nextiajd_pairs=3,
        sotab_tables=3,
        n_permutations=3,
        min_rows=4,
        max_rows=5,
    )


def observatory(disk_dir: Optional[str] = None):
    from repro import Observatory, RuntimeConfig

    runtime = RuntimeConfig(disk_cache_dir=disk_dir) if disk_dir else None
    return Observatory(seed=CORPUS_SEED, sizes=sizes(), runtime=runtime)


def op_order(rng: random.Random, properties: Sequence[str]) -> Tuple[List[str], List[str]]:
    """One op's model and property order, drawn from the workload seed."""
    return rng.sample(list(MODELS), len(MODELS)), rng.sample(list(properties), len(properties))


def column_only_properties() -> set:
    from repro.core.levels import EmbeddingLevel
    from repro.core.registry import load_property

    return {
        p for p in COLD_PROPERTIES
        if tuple(load_property(p).levels) == (EmbeddingLevel.COLUMN,)
    }


def slower_half_mean(values: Sequence[float]) -> float:
    ordered = sorted(values)
    upper = ordered[len(ordered) // 2 :]
    return sum(upper) / len(upper)


def load_reference() -> Dict[str, object]:
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_tolerance() -> float:
    from repro.models.backends import PADDED_TOLERANCE

    return PADDED_TOLERANCE


class SweepRun:
    """Ops of one sweep workload, their timings and their check results."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.properties = COLD_PROPERTIES if workload == "sweep-cold" else RESTART_PROPERTIES
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.reference = {
            k: v for k, v in load_reference().items() if k.split("/")[1] in self.properties
        }
        self.tolerance = reference_tolerance()
        self.first: Optional[Dict[str, object]] = None
        self.disk_dir: Optional[str] = None
        self.setup_seconds: List[float] = []
        self.op_seconds: List[float] = []
        self.cells_done = 0
        self.cell_seconds: List[Tuple[int, str, float]] = []  # (op, property, seconds)
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.workers: Optional[int] = None
        self._dirs = 0
        # Context for the timed region of each op (the traced phase
        # replaces it with a tracer op).
        self.timed: Callable[[], contextlib.AbstractContextManager] = contextlib.nullcontext

    def _fresh_dir(self, kind: str) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{kind}-{self._dirs}")

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            self._setup_once()

    def _setup_once(self) -> None:
        """One priming cold sweep, timed as set-up.

        On ``sweep-restart`` it fills a fresh disk tier that the ops read.
        On ``sweep-cold`` it uses the memory tier only and leaves nothing
        the ops reuse (each op builds a fresh Observatory): constructing an
        Observatory alone takes tens of milliseconds, which split into two
        modes between processes, too little to time steadily.
        """
        disk_dir = self._fresh_dir("disk") if self.workload == "sweep-restart" else None
        t0 = time.perf_counter()
        prime = observatory(disk_dir).sweep(list(MODELS), list(self.properties))
        self.setup_seconds.append(time.perf_counter() - t0)
        cells = checks.sweep_cells(prime)
        self.problems += checks.within_tolerance(cells, self.reference, self.tolerance, "prime")
        if self.first is None:
            self.first = cells  # every op must equal this cold sweep bit for bit
        else:
            self.problems += checks.identical(cells, self.first, "prime")
        self.disk_dir = disk_dir

    # -- ops ---------------------------------------------------------------

    def op(self) -> None:
        """One timed sweep; its checks run after the clock stops."""
        models, properties = op_order(self.rng, self.properties)
        journal_dir = self._fresh_dir("journal")
        self.attempted += 1
        with self.timed():
            t0 = time.perf_counter()
            sweep = observatory(self.disk_dir).sweep(models, properties, journal_dir=journal_dir)
            seconds = time.perf_counter() - t0
        self.workers = sweep.workers
        problems = self.check(sweep)
        if problems:
            self.failed += 1
            self.problems += problems
        else:
            self.cells_done += len(sweep.cells)
            self.op_seconds.append(seconds)
            self.cell_seconds += [
                (self.attempted, c.property_name, c.seconds) for c in sweep.cells
            ]

    def check(self, sweep) -> List[str]:
        what = f"{self.workload} op {self.attempted}"
        problems = []
        if sweep.failures or sweep.skipped:
            problems.append(f"{what}: failures {sweep.failures} skipped {sweep.skipped}")
        cells = checks.sweep_cells(sweep)
        problems += checks.within_tolerance(cells, self.reference, self.tolerance, what)
        if self.first is None:
            self.first = cells
        else:
            problems += checks.identical(cells, self.first, what)
        if self.workload == "sweep-restart":
            problems += checks.zero_misses(sweep.cache_stats, what)
        return problems

    def run_ops(self, seconds: float) -> None:
        start = time.perf_counter()
        ops = 0
        while ops < MIN_OPS or time.perf_counter() - start < seconds:
            self.op()
            ops += 1
        self.wall += time.perf_counter() - start

    def end_to_end(self) -> Tuple[Dict[str, float], List[str]]:
        """End-to-end metrics, and a note on how each tail was taken.

        The request-class metrics every workload reports read, on a sweep:
        ``req_per_s`` sweeps per second; ``char_*`` the wall time of a cell
        (one model x property characterization); ``query_*`` the cells
        whose property reads column embeddings only; ``write_*`` the rest.
        Each class is sampled once per op: cell times cluster by property,
        so order statistics over pooled cells jump from one cluster to the
        next between runs, and a run holds too few ops for the ten-beyond
        tail rule.  p50 is the median over ops of the class's mean cell
        time; the tail is the median over ops of the mean of the class's
        slower half of cells (a single slowest cell swings with whichever
        cell shares the pool with it).
        """
        total = sum(self.op_seconds)
        metrics = {
            "cells_per_s": self.cells_done / total if total else 0.0,
            "sweep_p50_ms": median(self.op_seconds) * 1e3,
            "req_per_s": len(self.op_seconds) / self.wall if self.wall else 0.0,
            "setup_s": median(self.setup_seconds),
        }
        column_only = column_only_properties()
        classes = {
            "char": lambda prop: True,
            "query": lambda prop: prop in column_only,
            "write": lambda prop: prop not in column_only,
        }
        notes: List[str] = []
        for kind, member in classes.items():
            per_op: Dict[int, List[float]] = {}
            for op, prop, seconds in self.cell_seconds:
                if member(prop):
                    per_op.setdefault(op, []).append(seconds * 1e3)
            metrics[f"{kind}_p50_ms"] = median([sum(c) / len(c) for c in per_op.values()])
            metrics[f"{kind}_tail_ms"] = median([slower_half_mean(c) for c in per_op.values()])
            notes.append(
                f"{kind}_tail_ms = median over {len(per_op)} ops of the slower half's mean"
            )
        return metrics, notes
