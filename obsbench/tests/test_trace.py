import threading
import time
import types

from benchlib.trace import Span, Tracer, children_index, self_seconds


def span(id, parent, t0, t1, layer="x"):
    s = Span(id, parent, "op", layer, id, t0, "foreground")
    s.t1 = t1
    return s


def test_self_time_subtracts_nested_children():
    parent = span("p", None, 0.0, 10.0)
    child = span("c", "p", 2.0, 5.0)
    grandchild = span("g", "c", 3.0, 4.0)
    index = children_index([parent, child, grandchild])
    assert self_seconds(parent, index["p"]) == 7.0
    assert self_seconds(child, index["c"]) == 2.0
    assert self_seconds(grandchild, index.get("g", [])) == 1.0


def test_self_time_counts_overlapping_children_from_other_threads_once():
    parent = span("p", None, 0.0, 10.0)
    # Two worker threads' children overlap in [3, 4]; one leaks past the end.
    a = span("a", "p", 1.0, 4.0)
    b = span("b", "p", 3.0, 6.0)
    c = span("c", "p", 9.0, 12.0)
    assert self_seconds(parent, [a, b, c]) == 10.0 - 5.0 - 1.0


def test_spans_from_pool_threads_attach_to_the_submitting_span():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.op("op1", "sweep") as root:
        parent = tracer.current()

        def work():
            with tracer.adopt("op1", parent):
                s = tracer.begin("layer", "work")
                time.sleep(0.01)
                tracer.end(s)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    workers = [s for s in tracer.spans if s.layer == "layer"]
    assert len(workers) == 2
    assert all(s.parent == root.id and s.op == "op1" for s in workers)
    assert self_seconds(root, workers) < root.seconds


def test_same_layer_calls_fold_into_the_outer_span_and_background_has_its_own_lane():
    tracer = Tracer()
    module = types.SimpleNamespace()
    module.inner = lambda: time.sleep(0.001)

    def outer():
        module.inner()
        module.inner()

    module.outer = outer
    tracer.wrap(module, "inner", "enc")
    tracer.wrap(module, "outer", "enc")
    tracer.enabled = True
    tracer.default_op = "op1"
    with tracer.op("op1", "sweep"):
        module.outer()
    thread = threading.Thread(target=module.inner)  # no op context: background
    thread.start()
    thread.join(timeout=10)
    enc = [s for s in tracer.spans if s.layer == "enc"]
    assert [s.name for s in enc] == ["outer", "inner"]
    assert [s.lane for s in enc] == ["foreground", "background"]
    assert enc[1].op == "op1" and enc[1].parent is None
    assert tracer.calls["SimpleNamespace.inner"] == 3


def test_disabled_wrappers_record_nothing_and_uninstall_restores():
    tracer = Tracer()
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer.wrap(module, "f", "layer")
    assert module.f(1) == 2 and not tracer.spans
    tracer.uninstall()
    assert module.f is original


def test_dump_and_load_round_trip(tmp_path):
    tracer = Tracer(prefix="s")
    tracer.enabled = True
    with tracer.op("op1", "req"):
        pass
    path = str(tmp_path / "spans.json")
    tracer.dump(path)
    merged = Tracer()
    merged.load(path)
    assert [(s.id, s.op, s.layer) for s in merged.spans] == [("s1", "op1", "op")]


def test_program_wrappers_count_index_calls_in_the_sweep_process(tmp_path):
    import numpy as np

    from benchlib import layers
    from repro.index import ColumnIndex

    tracer = Tracer()
    layers.install_program(tracer)
    try:
        tracer.enabled = True
        with tracer.op("op1", "sweep"):
            index = ColumnIndex.create(str(tmp_path / "index"), dim=4)
            index.append_many([("a", np.ones(4)), ("b", np.arange(4.0) + 1)])
            index.query(np.ones(4), 1)
        tracer.enabled = False
        metrics = layers.layer_metrics(tracer, {"op1": "sweep"})
    finally:
        tracer.uninstall()
    assert (metrics["index.opens"], metrics["index.appends"], metrics["index.queries"]) == (1, 1, 1)
    problems = layers.check_predictions("sweep-cold", tracer, metrics)
    assert any(p.startswith("index.queries = 1") for p in problems)
