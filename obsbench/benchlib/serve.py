"""The ``serve-mixed`` workload: the always-on service under mixed traffic.

Set-up starts a ``repro serve`` child at its defaults (``--tables`` small,
state and temporary files inside the run directory), primes it with a few
characterize requests, and fills a ``ColumnIndex`` through the service with
column embeddings the program computes.  Then two client threads, each a
``ServiceClient`` on one keep-alive connection, run a closed loop of
seeded requests: repeat characterizations (result-cache hits), ``probe``
index queries, and writes (upload a table, then ``index/append`` it).
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import checks
from .stats import median, tail

CLIENTS = 2
SERVE_ARGS = ("--tables", "4")
PRIME_REQUESTS = (
    (["bert"], ["row_order_insignificance"]),
    (["t5"], ["sample_fidelity"]),
    (["bert", "t5"], ["column_order_insignificance"]),
    (["doduo"], ["heterogeneous_context"]),
)
INDEX_MODEL = "t5"  # the service's default model for appends by table_id
INDEX_ROWS = 4096
INDEX_CHUNK = 1024
VALUES_PER_COLUMN = 4
QUERY_POOL = 256
K = 10
WRITE_COLUMNS = 2
WRITE_ROWS = 6
# The characterize : query split is that of benchmarks/bench_service.py's
# full run, the repository's own picture of a served session: 4 models x 2
# properties x 5 rounds = 40 cache-hit characterizations beside 50 index
# queries.  Writes are 5%, so a run's appends grow the primed index by a
# small fraction (10% of 3-column tables grew it by about a quarter).
WRITE_SHARE = 0.05
MIX = (
    ("char", (1 - WRITE_SHARE) * 40 / 90),
    ("query", (1 - WRITE_SHARE) * 50 / 90),
    ("write", WRITE_SHARE),
)
RECALL_SAMPLE = 100
RECALL_FLOOR = 0.9
CORPUS_SEED = 12345
SETUP_REPEATS = 3
CHILD = os.path.join(os.path.dirname(os.path.dirname(__file__)), "serve_child.py")


def topics() -> List[Tuple[str, List[str]]]:
    """(header, value pool) per column topic, from the program's banks."""
    from repro.data import banks

    out = []
    for header, rows, field in (
        ("country", banks.COUNTRIES, 0), ("continent", banks.COUNTRIES, 1),
        ("capital", banks.COUNTRIES, 2), ("currency", banks.COUNTRIES, 3),
        ("player", banks.TENNIS_PLAYERS, 0), ("nationality", banks.TENNIS_PLAYERS, 1),
        ("product", banks.PRODUCTS, 0), ("category", banks.PRODUCTS, 1),
        ("title", banks.BOOKS, 0), ("author", banks.BOOKS, 1),
    ):
        out.append((header, sorted({row[field] for row in rows})))
    out.append(("first name", list(banks.FIRST_NAMES)))
    out.append(("last name", list(banks.LAST_NAMES)))
    out.append(("genre", list(banks.GENRES)))
    return out


def make_column(rng: random.Random, n_values: int) -> Tuple[str, List[str]]:
    header, pool = rng.choice(topics())
    return header, [rng.choice(pool) for _ in range(n_values)]


def embed_columns(columns: List[Tuple[str, List[str]]]):
    """Column embeddings computed by the program (fresh, uncached executor)."""
    from repro import Observatory

    return Observatory(seed=0).executor(INDEX_MODEL).embed_value_columns(columns)


def index_corpus():
    """The fixed index corpus: (key, embedding) for ``INDEX_ROWS`` columns."""
    rng = random.Random(CORPUS_SEED)
    columns = [make_column(rng, VALUES_PER_COLUMN) for _ in range(INDEX_ROWS)]
    embeddings = embed_columns(columns)
    return [(f"c{i}::{h}", e) for i, ((h, _), e) in enumerate(zip(columns, embeddings))]


def request_mix(rng: random.Random) -> str:
    draw = rng.random()
    for kind, share in MIX:
        if draw < share:
            return kind
        draw -= share
    return MIX[-1][0]


def write_table(rng: random.Random) -> List[List[object]]:
    chosen = rng.sample(topics(), WRITE_COLUMNS)
    return [[h, [rng.choice(pool) for _ in range(WRITE_ROWS)]] for h, pool in chosen]


def bench_client_class(tracer=None):
    """``ServiceClient`` whose connection tags requests with the span header."""
    from repro.service.client import ServiceClient

    from .layers import SPAN_HEADER

    class BenchClient(ServiceClient):
        def _connection(self):
            conn = super()._connection()
            if tracer is not None and not getattr(conn, "_bench_tagged", False):
                send = conn.request

                def request(method, url, body=None, headers=None, **kwargs):
                    span = tracer.current()
                    if tracer.enabled and span is not None:
                        headers = dict(headers or {}, **{SPAN_HEADER: f"{span.op}/{span.id}"})
                    return send(method, url, body=body, headers=headers or {}, **kwargs)

                conn.request = request
                conn._bench_tagged = True
            return conn

    return BenchClient


class Child:
    """One ``repro serve`` child process, started through the launcher."""

    def __init__(self, workdir: str, index: int, spans_path: Optional[str]):
        state_dir = os.path.join(workdir, f"state-{index}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        if spans_path:
            env["OBSBENCH_SPANS"] = spans_path
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, *SERVE_ARGS, "serve", "--state-dir", state_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.rsplit("listening on ", 1)[1].strip()
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(timeout=10)


def class_latency(kind: str, samples_ms: List[float], notes: List[str]) -> Dict[str, float]:
    """``<kind>_p50_ms`` and ``<kind>_tail_ms``; appends the tail's note."""
    value, percentile, n = tail(samples_ms)
    if value is None:
        notes.append(f"{kind}_tail_ms = max of {n} samples (too few for a tail)")
        value = max(samples_ms, default=0.0)
    else:
        notes.append(f"{kind}_tail_ms = p{percentile:.2f} of {n} samples")
    return {f"{kind}_p50_ms": median(samples_ms), f"{kind}_tail_ms": value}


class ServeRun:
    """Set-up, closed-loop traffic and end checks of ``serve-mixed``."""

    def __init__(self, seed: int, workdir: str, tracer=None, child_spans: Optional[str] = None):
        self.seed = seed
        self.workdir = workdir
        self.child_spans = child_spans
        self.index_dir = ""
        self.client_cls = bench_client_class(tracer)
        self.child: Optional[Child] = None
        self.setup_seconds: List[float] = []
        self.primed: Dict[int, str] = {}
        self.primed_cells: Dict[int, str] = {}
        self.refusals: List[str] = []
        self.phase = 0
        self.recall: Optional[float] = None
        self.problems: List[str] = []
        self.latencies: Dict[str, List[float]] = {kind: [] for kind, _ in MIX}
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.char_cells = 0
        self.served_workers: Optional[int] = None
        self._lock = threading.Lock()
        self._tables = 0
        self.corpus = index_corpus()
        qrng = random.Random(seed)
        self.queries = embed_columns(
            [make_column(qrng, VALUES_PER_COLUMN) for _ in range(QUERY_POOL)]
        )

    # -- set-up --------------------------------------------------------

    def setup(self) -> None:
        for i in range(SETUP_REPEATS):
            if self.child is not None:
                self.stop()
            self.index_dir = os.path.join(self.workdir, f"index-{i}")
            t0 = time.perf_counter()
            last = i == SETUP_REPEATS - 1
            self.child = Child(self.workdir, i, self.child_spans if last else None)
            with self.client_cls(self.child.url) as client:
                client.health()
                for n, (models, properties) in enumerate(PRIME_REQUESTS):
                    result = client.characterize(models, properties)
                    self.served_workers = result.get("workers")
                    # Payloads carry timings; across set-ups only results match.
                    cells = checks.canonical([c["result"] for c in result["cells"]])
                    if self.primed_cells.setdefault(n, cells) != cells:
                        self.problems.append(f"primed request {n} differs between set-ups")
                    self.primed[n] = checks.canonical(result)
                client.index_create(self.index_dir, dim=len(self.corpus[0][1]))
                for start in range(0, len(self.corpus), INDEX_CHUNK):
                    client.index_append(
                        self.index_dir,
                        entries=[
                            {"key": key, "vector": vector.tolist()}
                            for key, vector in self.corpus[start : start + INDEX_CHUNK]
                        ],
                    )
            self.setup_seconds.append(time.perf_counter() - t0)

    # -- traffic -------------------------------------------------------

    def run(self, seconds: float, op_context=None) -> float:
        """Closed loop of ``CLIENTS`` threads for ``seconds``; returns wall time.

        ``op_context(op_id, kind)``, when given, wraps each timed request.
        """
        self.phase += 1
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._client_loop, args=(c, deadline, op_context))
            for c in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - t0

    def _client_loop(self, client_no: int, deadline: float, op_context) -> None:
        from repro.errors import ObservatoryError

        rng = random.Random(f"{self.seed}-{self.phase}-{client_no}")
        n = 0
        with self.client_cls(self.child.url) as client:
            while time.perf_counter() < deadline:
                n += 1
                kind = request_mix(rng)
                inputs = self._inputs(kind, rng, client_no)
                context = (
                    op_context(f"p{self.phase}c{client_no}-{n}", kind)
                    if op_context is not None
                    else contextlib.nullcontext()
                )
                refused = False
                try:
                    with context:
                        t0 = time.perf_counter()
                        reply = self._send(client, kind, inputs)
                        seconds = time.perf_counter() - t0
                except (ObservatoryError, OSError) as exc:
                    refused = True
                    problems = [f"{kind} request failed: {type(exc).__name__}: {exc}"]
                except Exception as exc:  # noqa: BLE001 - a wrong reply fails the run
                    problems = [f"{kind} reply unusable: {type(exc).__name__}: {exc}"]
                else:
                    problems = self._check(kind, inputs, reply)
                with self._lock:
                    self.attempted += 1
                    if problems:
                        self.failed += 1
                        if refused:
                            self.refusals += problems[:1]
                        else:
                            self.problems += problems
                    else:
                        self.completed += 1
                        self.latencies[kind].append(seconds)
                        if kind == "char":
                            self.char_cells += len(reply["cells"])

    def _inputs(self, kind: str, rng: random.Random, client_no: int):
        if kind == "char":
            return rng.randrange(len(PRIME_REQUESTS))
        if kind == "query":
            return self.queries[rng.randrange(len(self.queries))]
        with self._lock:
            self._tables += 1
            table_id = f"w{self.seed}-{client_no}-{self._tables}"
        return table_id, write_table(rng)

    def _send(self, client, kind: str, inputs):
        if kind == "char":
            models, properties = PRIME_REQUESTS[inputs]
            return client.characterize(models, properties)
        if kind == "query":
            return client.index_query(
                self.index_dir, vector=inputs.tolist(), k=K, prune="probe"
            )
        table_id, columns = inputs
        client.upload_table(table_id, columns)
        return client.index_append(self.index_dir, table_id=table_id)

    def _check(self, kind: str, inputs, reply) -> List[str]:
        if kind == "char":
            if checks.canonical(reply) != self.primed[inputs]:
                return [f"characterize {inputs} differs from its set-up response"]
        elif kind == "query":
            hits = reply.get("hits", [])
            scores = [h["score"] for h in hits]
            if len(hits) != K or scores != sorted(scores, reverse=True):
                return [f"probe query returned {len(hits)} hits, unordered or short"]
        elif reply.get("appended") != WRITE_COLUMNS:
            return [f"append of {inputs[0]} appended {reply.get('appended')} rows"]
        return []

    # -- end -----------------------------------------------------------

    def end_checks(self) -> None:
        """``off`` hits equal a direct ColumnIndex oracle; probe recall holds."""
        from repro.index import ColumnIndex

        oracle = ColumnIndex.open(self.index_dir)
        rng = random.Random(f"{self.seed}-recall")
        sample = rng.sample(range(len(self.queries)), RECALL_SAMPLE)
        recalls = []
        with self.client_cls(self.child.url) as client:
            for i in sample:
                vector = self.queries[i]
                exact = oracle.query(vector, K, prune="off")
                served = client.index_query(self.index_dir, vector=vector.tolist(), k=K)
                self.problems += checks.index_hits_equal(served["hits"], exact, f"query {i}")
                probe = client.index_query(
                    self.index_dir, vector=vector.tolist(), k=K, prune="probe"
                )
                recalls.append(
                    checks.recall([h["key"] for h in probe["hits"]], [k for k, _ in exact])
                )
        self.recall = sum(recalls) / len(recalls)
        if self.recall < RECALL_FLOOR:
            self.problems.append(f"probe recall {self.recall:.3f} below {RECALL_FLOOR}")

    def stop(self) -> None:
        if self.child is not None:
            code = self.child.stop()
            self.child = None
            if code != 0:
                self.problems.append(f"repro serve exited with {code}")

    def end_to_end(self, wall: float) -> Tuple[Dict[str, float], List[str]]:
        """End-to-end metrics, and a note on how each tail was taken.

        ``cells_per_s`` reads the cells in characterize replies over their
        summed latency; ``sweep_p50_ms`` the median over all requests.
        """
        char_seconds = sum(self.latencies["char"])
        every = [s * 1e3 for samples in self.latencies.values() for s in samples]
        metrics = {
            "req_per_s": self.completed / wall if wall else 0.0,
            "cells_per_s": self.char_cells / char_seconds if char_seconds else 0.0,
            "sweep_p50_ms": median(every),
            "setup_s": median(self.setup_seconds),
        }
        notes: List[str] = []
        for kind in ("char", "query", "write"):
            metrics.update(class_latency(kind, [s * 1e3 for s in self.latencies[kind]], notes))
        return metrics, notes
