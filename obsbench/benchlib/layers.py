"""The layer table: what is wrapped, what each layer reports, what it predicts.

Each layer is a module of the program.  :func:`install_program` wraps the
functions through which a sweep or a request reaches it, each at the name
its caller looks up.  The sweep workloads install it in their own process
and the ``repro serve`` child in its own, so a layer a workload should not
touch (the index on a sweep) still counts any call it gets.
:func:`install_client` wraps the client's round trip in the generator.
:func:`layer_metrics` turns spans into the per-layer metrics, and
:func:`check_predictions` fails a traced run whose layers did not do what
``WORKLOADS.md`` predicts.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from .stats import median, union_length
from .trace import Span, Tracer, children_index, now, self_seconds

# -- notes: counts attached to spans at the wrapped boundary ------------


def _note_hit(span: Span, args, kwargs, result) -> None:
    span.attrs["hit"] = result is not None and not isinstance(result, BaseException)


def _note_sequences(position: int):
    def note(span: Span, args, kwargs, result) -> None:
        token_lists = args[position] if len(args) > position else kwargs["token_lists"]
        span.attrs["sequences"] = len(token_lists)
        span.attrs["tokens"] = sum(len(t) for t in token_lists)

    return note


def _note_one_sequence(span: Span, args, kwargs, result) -> None:
    span.attrs["sequences"] = 1
    span.attrs["tokens"] = len(args[1])


def _note_submit(span: Span, args, kwargs, result) -> None:
    payload = getattr(result, "payload", None)
    span.attrs["hit"] = isinstance(payload, dict) and payload.get("cache_hit") is True
    span.attrs["rejected"] = type(result).__name__ == "ServiceOverloadedError"


# -- installation --------------------------------------------------------


def _traced_pool(tracer: Tracer):
    """A ThreadPoolExecutor whose tasks record a ``runtime.sweep`` cell span.

    The span's parent is the span that submitted the task, and
    ``attrs["wait"]`` is the time from submit to start.
    """

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            if not tracer.enabled:
                return super().submit(fn, *args, **kwargs)
            parent, op, submitted = tracer.current(), tracer.current_op(), now()

            def cell(*a, **k):
                with tracer.adopt(op, parent):
                    span = tracer.begin("runtime.sweep", "cell")
                    span.attrs["wait"] = span.t0 - submitted
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.end(span)

            return super().submit(cell, *args, **kwargs)

    return TracedPool


def install_program(tracer: Tracer) -> None:
    """Wrap every layer of the program: runtime, models, properties, service, index."""
    import repro.core.framework as framework
    import repro.models.aggregate as aggregate
    import repro.runtime.cache as cache
    import repro.runtime.fingerprint as fingerprint
    import repro.runtime.planner as planner
    import repro.runtime.sweep as sweep
    from repro.core.registry import available_properties, load_property
    from repro.models.backends import LocalBackend
    from repro.models.encoder import Encoder
    from repro.models.serializers import ColumnWiseSerializer, RowWiseSerializer
    from repro.runtime.disk import DiskTier
    from repro.runtime.journal import SweepJournal

    tracer.wrap(framework, "run_sweep", "runtime.sweep", "run")
    tracer.replace(sweep, "ThreadPoolExecutor", _traced_pool(tracer))

    runners = set()
    for name in available_properties():
        cls = type(load_property(name))
        runners.add(next(c for c in cls.__mro__ if "run" in vars(c)))
    for cls in sorted(runners, key=lambda c: c.__name__):
        tracer.wrap(cls, "run", "core.properties", cls.__name__)

    for method in (
        "embed_levels_many", "embed_levels", "embed_columns", "embed_rows",
        "embed_table", "embed_cells", "embed_entities", "embed_value_columns",
        "embed_value_column",
    ):
        tracer.wrap(planner.EmbeddingExecutor, method, "runtime.planner")

    # The planner and the cache bind their own copies of these names.
    for module in (planner, fingerprint):
        for name in ("table_fingerprint", "value_column_fingerprint", "coords_fingerprint"):
            tracer.wrap(module, name, "runtime.fingerprint")
    tracer.wrap(cache, "cache_entry_digest", "runtime.fingerprint")
    tracer.wrap(fingerprint, "cache_entry_digest", "runtime.fingerprint")

    tracer.wrap(cache.EmbeddingCache, "get", "runtime.cache", note=_note_hit)
    tracer.wrap(cache.EmbeddingCache, "put", "runtime.cache")
    tracer.wrap(DiskTier, "get", "runtime.disk", note=_note_hit)
    tracer.wrap(DiskTier, "put", "runtime.disk")

    for method in ("record_planned", "record_cell", "record_failure"):
        tracer.wrap(SweepJournal, method, "runtime.journal", "append")

    for cls in (RowWiseSerializer, ColumnWiseSerializer):
        for method in ("serialize", "serialize_rows", "fit_rows"):
            tracer.wrap(cls, method, "models.serializers", f"{cls.__name__}.{method}")

    # Encoder.aencode_batch is a coroutine that hands the batch to the
    # backend's encode_batch on an executor thread: wrapping the backend
    # (the default, exact one) records that work once, on the background
    # lane.
    tracer.wrap(Encoder, "encode_batch", "models.encoder", note=_note_sequences(1))
    tracer.wrap(Encoder, "encode", "models.encoder", note=_note_one_sequence)
    tracer.wrap(LocalBackend, "encode_batch", "models.encoder", note=_note_sequences(2))

    for name in (
        "column_embeddings", "row_embeddings", "embedded_row_count",
        "table_embedding", "cell_embedding", "cell_embeddings", "entity_embedding",
    ):
        tracer.wrap(aggregate, name, "models.aggregate")

    _install_service(tracer)


ROUTES = {
    "/v1/characterize": "characterize",
    "/v1/index/query": "query",
    "/v1/tables": "upload",
    "/v1/index/append": "append",
}
SPAN_HEADER = "x-bench-span"


def _install_service(tracer: Tracer) -> None:
    """Wrap the HTTP plane, the submit handler and the column index.

    The HTTP span covers a request's whole handling on the server: body
    read, routing, handler, and the response write (JSON encoding and
    gzip happen there).  A request's ``X-Bench-Span: <op>/<client span>``
    header makes it a child of the generator's client span.
    """
    from repro.index import ColumnIndex
    from repro.service.app import CharacterizationService
    from repro.service.http import _PlaneHandler

    original = _PlaneHandler._dispatch

    def handle(self, method):
        if not tracer.enabled:
            return original(self, method)
        tracer.calls["_PlaneHandler._dispatch"] += 1
        op, _, parent = (self.headers.get(SPAN_HEADER) or "").partition("/")
        route = ROUTES.get(self.path.split("?", 1)[0].rstrip("/"), "other")
        with tracer.adopt(op or None, None):
            span = tracer.begin("service.http", route, parent=parent or None)
            try:
                return original(self, method)
            finally:
                tracer.end(span)

    tracer.calls.setdefault("_PlaneHandler._dispatch", 0)
    tracer.replace(_PlaneHandler, "_dispatch", handle)
    tracer.wrap(CharacterizationService, "_handle_submit", "service.app", note=_note_submit)
    tracer.wrap(ColumnIndex, "query", "index")
    tracer.wrap(ColumnIndex, "append_many", "index")
    tracer.wrap(ColumnIndex, "__init__", "index", "open")


def install_client(tracer: Tracer, client_cls) -> None:
    """Wrap the client's round trip; the subclass adds the span header."""
    tracer.wrap(client_cls, "request", "service.client", "rtt")


# -- per-layer metrics ---------------------------------------------------

# name -> (unit, better).  Counts are means per op; *_ms are medians per
# op; ratios are taken over all ops' totals.
PER_LAYER = {
    "runtime.sweep.cell_wait_ms": ("ms", "lower"),
    "runtime.sweep.cell_busy_ms": ("ms", "lower"),
    "models.serializers.calls": ("count", "lower"),
    "models.serializers.busy_ms": ("ms", "lower"),
    "models.encoder.sequences": ("count", "lower"),
    "models.encoder.tokens": ("count", "lower"),
    "models.encoder.busy_ms": ("ms", "lower"),
    "models.encoder.loop_busy_ms": ("ms", "lower"),
    "models.aggregate.calls": ("count", "lower"),
    "models.aggregate.busy_ms": ("ms", "lower"),
    "runtime.planner.calls": ("count", "lower"),
    "runtime.planner.self_ms": ("ms", "lower"),
    "runtime.fingerprint.calls": ("count", "lower"),
    "runtime.fingerprint.busy_ms": ("ms", "lower"),
    "runtime.cache.gets": ("count", "lower"),
    "runtime.cache.hit_ratio": ("ratio", "higher"),
    "runtime.cache.self_ms": ("ms", "lower"),
    "runtime.disk.gets": ("count", "lower"),
    "runtime.disk.hit_ratio": ("ratio", "higher"),
    "runtime.disk.get_ms": ("ms", "lower"),
    "runtime.disk.puts": ("count", "lower"),
    "runtime.disk.put_ms": ("ms", "lower"),
    "runtime.journal.appends": ("count", "lower"),
    "runtime.journal.append_ms": ("ms", "lower"),
    "core.properties.self_ms": ("ms", "lower"),
    "service.http.requests": ("count", "lower"),
    "service.http.dispatch_ms.characterize": ("ms", "lower"),
    "service.http.dispatch_ms.query": ("ms", "lower"),
    "service.http.dispatch_ms.upload": ("ms", "lower"),
    "service.http.dispatch_ms.append": ("ms", "lower"),
    "service.client.rtt_ms": ("ms", "lower"),
    "service.client.outside_ms": ("ms", "lower"),
    "service.app.result_cache_hit_ratio": ("ratio", "higher"),
    "service.app.rejected": ("count", "lower"),
    "index.queries": ("count", "lower"),
    "index.query_ms": ("ms", "lower"),
    "index.appends": ("count", "lower"),
    "index.append_ms": ("ms", "lower"),
    "index.opens": ("count", "lower"),
    "index.open_ms": ("ms", "lower"),
    "index.opens_per_query": ("ratio", "lower"),
    "trace.unattributed_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Layers whose spans only contain other layers' work: their time is not
# attributed to a layer of their own when computing unattributed time.
CONTAINERS = ("op", "runtime.sweep", "service.client")


def _busy(spans: Sequence[Span]) -> float:
    return sum(s.seconds for s in spans) * 1e3


def _self(spans: Sequence[Span], children: Dict[str, List[Span]]) -> float:
    return sum(self_seconds(s, children.get(s.id, [])) for s in spans) * 1e3


def op_values(root: Span, spans: Sequence[Span], children: Dict[str, List[Span]]) -> Dict[str, float]:
    """Raw per-op values (counts, ms, ratio numerators) of one op."""
    by_layer: Dict[str, List[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)
    layer = lambda name: by_layer.get(name, [])  # noqa: E731
    named = lambda name, label: [s for s in layer(name) if s.name == label]  # noqa: E731
    encoder = layer("models.encoder")
    cache_gets = named("runtime.cache", "get")
    disk_gets = named("runtime.disk", "get")
    disk_puts = named("runtime.disk", "put")
    submits = layer("service.app")
    index = layer("index")
    covered = [
        (max(s.t0, root.t0), min(s.t1, root.t1))
        for s in spans
        if s.layer not in CONTAINERS and s.t1 > root.t0 and s.t0 < root.t1
    ]
    values = {
        "models.serializers.calls": len(layer("models.serializers")),
        "models.serializers.busy_ms": _busy(layer("models.serializers")),
        "models.encoder.sequences": sum(s.attrs.get("sequences", 0) for s in encoder),
        "models.encoder.tokens": sum(s.attrs.get("tokens", 0) for s in encoder),
        "models.encoder.busy_ms": _busy([s for s in encoder if s.lane == "foreground"]),
        "models.encoder.loop_busy_ms": _busy([s for s in encoder if s.lane == "background"]),
        "models.aggregate.calls": len(layer("models.aggregate")),
        "models.aggregate.busy_ms": _busy(layer("models.aggregate")),
        "runtime.planner.calls": len(layer("runtime.planner")),
        "runtime.planner.self_ms": _self(layer("runtime.planner"), children),
        "runtime.fingerprint.calls": len(layer("runtime.fingerprint")),
        "runtime.fingerprint.busy_ms": _busy(layer("runtime.fingerprint")),
        "runtime.cache.gets": len(cache_gets),
        "runtime.cache.hits": sum(1 for s in cache_gets if s.attrs.get("hit")),
        "runtime.cache.self_ms": _self(layer("runtime.cache"), children),
        "runtime.disk.gets": len(disk_gets),
        "runtime.disk.hits": sum(1 for s in disk_gets if s.attrs.get("hit")),
        "runtime.disk.get_ms": _busy(disk_gets),
        "runtime.disk.puts": len(disk_puts),
        "runtime.disk.put_ms": _busy(disk_puts),
        "runtime.journal.appends": len(layer("runtime.journal")),
        "runtime.journal.append_ms": _busy(layer("runtime.journal")),
        "core.properties.self_ms": _self(layer("core.properties"), children),
        "service.http.requests": len(layer("service.http")),
        "service.app.submits": len(submits),
        "service.app.hits": sum(1 for s in submits if s.attrs.get("hit")),
        "service.app.rejected": sum(1 for s in submits if s.attrs.get("rejected")),
        "index.queries": len(named("index", "query")),
        "index.query_ms": _busy(named("index", "query")),
        "index.appends": len(named("index", "append_many")),
        "index.append_ms": _busy(named("index", "append_many")),
        "index.opens": len(named("index", "open")),
        "index.open_ms": _busy(named("index", "open")),
        "trace.unattributed_ratio": (
            1.0 - union_length(covered) / root.seconds if root.seconds > 0 else 0.0
        ),
    }
    for route in ("characterize", "query", "upload", "append"):
        values[f"service.http.dispatch_ms.{route}"] = _busy(named("service.http", route))
    return values


def _cell_and_client_samples(spans: Sequence[Span], children: Dict[str, List[Span]]):
    cells = [s for s in spans if s.layer == "runtime.sweep" and s.name == "cell"]
    clients = [s for s in spans if s.layer == "service.client"]
    return {
        "runtime.sweep.cell_wait_ms": [s.attrs["wait"] * 1e3 for s in cells],
        "runtime.sweep.cell_busy_ms": [s.seconds * 1e3 for s in cells],
        "service.client.rtt_ms": [s.seconds * 1e3 for s in clients],
        "service.client.outside_ms": [
            (s.seconds - sum(c.seconds for c in children.get(s.id, []))) * 1e3
            for s in clients
        ],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    op_classes: Dict[str, str],
    class_of_metric: Optional[Dict[str, str]] = None,
) -> Dict[str, float]:
    """Per-layer metrics over the traced ops.

    ``op_classes`` maps each traced op id to its request class.  A metric
    whose prefix ``class_of_metric`` names is taken over that class's ops
    only (an index query time over query requests); otherwise over all.
    Counts are means per op, times medians per op, ratios totals over ops;
    cell and client times are medians over cells and round trips.
    """
    class_of_metric = class_of_metric or {}
    children = children_index(tracer.spans)
    per_op: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        if span.op in op_classes:
            per_op.setdefault(span.op, []).append(span)
    rows = []
    for op_id, spans in per_op.items():
        roots = [s for s in spans if s.layer == "op"]
        if roots:
            rows.append((op_classes[op_id], op_values(roots[0], spans, children)))

    def select(metric: str) -> List[Dict[str, float]]:
        prefixes = [p for p in class_of_metric if metric.startswith(p)]
        wanted = class_of_metric[max(prefixes, key=len)] if prefixes else None
        return [values for cls, values in rows if wanted is None or cls == wanted]

    def total(metric: str, key: str) -> float:
        return sum(values[key] for values in select(metric))

    out: Dict[str, float] = {}
    for metric, (unit, _better) in PER_LAYER.items():
        # Computed below, or by the caller (overhead needs an untraced phase).
        if metric == "trace.overhead_ratio" or metric.startswith(
            ("runtime.sweep.", "service.client.")
        ):
            continue
        chosen = select(metric)
        if unit == "count":
            out[metric] = statistics.fmean(v[metric] for v in chosen) if chosen else 0.0
        elif unit == "ms" or metric == "trace.unattributed_ratio":
            out[metric] = median([v[metric] for v in chosen])
    out["runtime.cache.hit_ratio"] = _ratio(
        total("runtime.cache", "runtime.cache.hits"), total("runtime.cache", "runtime.cache.gets")
    )
    out["runtime.disk.hit_ratio"] = _ratio(
        total("runtime.disk", "runtime.disk.hits"), total("runtime.disk", "runtime.disk.gets")
    )
    out["service.app.result_cache_hit_ratio"] = _ratio(
        total("service.app", "service.app.hits"), total("service.app", "service.app.submits")
    )
    out["service.app.rejected"] = total("service.app", "service.app.rejected")
    out["index.opens_per_query"] = _ratio(
        sum(v["index.opens"] for _, v in rows), sum(v["index.queries"] for _, v in rows)
    )
    traced = [s for s in tracer.spans if s.op in op_classes]
    for metric, samples in _cell_and_client_samples(traced, children).items():
        out[metric] = median(samples)
    return out


# -- predictions ---------------------------------------------------------

# Layers that must record calls on a workload's traced run.
ACTIVE = {
    "sweep-cold": (
        "runtime.sweep", "core.properties", "runtime.planner", "runtime.fingerprint",
        "runtime.cache", "runtime.journal", "models.serializers", "models.encoder",
        "models.aggregate",
    ),
    "sweep-restart": (
        "runtime.sweep", "core.properties", "runtime.planner", "runtime.fingerprint",
        "runtime.cache", "runtime.disk", "runtime.journal",
    ),
    "serve-mixed": (
        "service.http", "service.client", "service.app", "index", "runtime.planner",
        "runtime.fingerprint", "runtime.cache", "models.serializers", "models.encoder",
        "models.aggregate",
    ),
}

# Wrappers at names bound by ``from ... import``: a wrapper left at the
# defining module alone would record nothing, so each must fire.
MUST_FIRE = {
    "sweep-cold": (
        "repro.runtime.planner.table_fingerprint",
        "repro.runtime.planner.value_column_fingerprint",
        "repro.runtime.planner.coords_fingerprint",
        "repro.core.framework.run_sweep",
    ),
    "sweep-restart": (
        "repro.runtime.planner.table_fingerprint",
        "repro.runtime.planner.value_column_fingerprint",
        "repro.runtime.cache.cache_entry_digest",
        "repro.core.framework.run_sweep",
    ),
    "serve-mixed": (
        "repro.runtime.planner.value_column_fingerprint",
        "_PlaneHandler._dispatch",
    ),
}

# metric -> value it must equal on the workload.
EXACT = {
    "sweep-cold": {
        "runtime.disk.gets": 0, "index.queries": 0, "index.appends": 0,
        "index.opens": 0, "service.http.requests": 0,
    },
    "sweep-restart": {
        "models.encoder.sequences": 0, "runtime.cache.hit_ratio": 1.0,
        "index.queries": 0, "index.appends": 0, "index.opens": 0,
        "service.http.requests": 0,
    },
    "serve-mixed": {"runtime.disk.gets": 0},
}


def layer_calls(tracer: Tracer) -> Dict[str, int]:
    calls: Dict[str, int] = {}
    for span in tracer.spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
    return calls


def check_predictions(workload: str, tracer: Tracer, metrics: Dict[str, float]) -> List[str]:
    """Return one message per prediction the traced run broke."""
    problems = []
    calls = layer_calls(tracer)
    for layer in ACTIVE[workload]:
        if not calls.get(layer):
            problems.append(f"layer {layer} recorded no calls on {workload}")
    for key in MUST_FIRE[workload]:
        if not tracer.calls.get(key):
            problems.append(f"wrapper {key} recorded no calls on {workload}")
    for metric, expected in EXACT[workload].items():
        if metrics.get(metric) != expected:
            problems.append(f"{metric} = {metrics.get(metric)} on {workload}, predicted {expected}")
    return problems
