import json
import os
import random

from benchlib import checks, layers, serve, sweeps, workloads


def op_plan(seed, properties, n):
    rng = random.Random(seed)
    return [sweeps.op_order(rng, properties) for _ in range(n)]


def test_same_seed_same_op_sequence():
    for props in (sweeps.COLD_PROPERTIES, sweeps.RESTART_PROPERTIES):
        assert op_plan(7, props, 5) == op_plan(7, props, 5)
        assert op_plan(7, props, 5) != op_plan(8, props, 5)
        for models, properties in op_plan(3, props, 5):
            assert sorted(models) == sorted(sweeps.MODELS)
            assert sorted(properties) == sorted(props)


def test_serve_inputs_follow_the_seed():
    def draw(seed):
        rng = random.Random(seed)
        return [serve.request_mix(rng) for _ in range(50)], serve.write_table(rng)

    assert draw(1) == draw(1)
    assert draw(1) != draw(2)


def test_different_order_same_results():
    from repro import Observatory
    from repro.core.framework import DatasetSizes

    sizes = DatasetSizes(wikitables_tables=2, sotab_tables=2, n_permutations=2, min_rows=4, max_rows=5)
    props = ["row_order_insignificance", "sample_fidelity", "heterogeneous_context"]
    orders = {seed: op_plan(seed, props, 1)[0] for seed in (1, 2, 3, 4)}
    assert len({(tuple(m), tuple(p)) for m, p in orders.values()}) > 1
    results = [
        checks.sweep_cells(Observatory(seed=0, sizes=sizes).sweep(models, properties))
        for models, properties in orders.values()
    ]
    for other in results[1:]:
        assert checks.identical(other, results[0], "reordered") == []


def test_benchmark_json_names_what_the_runs_print():
    root = os.path.dirname(os.path.dirname(sweeps.__file__))
    with open(os.path.join(os.path.dirname(root), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(layers.ACTIVE)
