import copy
import math
import types

from benchlib import checks, sweeps

TOLERANCE = sweeps.reference_tolerance()


def reference():
    return sweeps.load_reference()


def first_float(cell):
    """Path (dict keys) to the first float scalar of a cell's distributions."""
    for name, dist in sorted(cell["distributions"].items()):
        for stat, value in sorted(dist.items()):
            if isinstance(value, float) and math.isfinite(value):
                return name, stat
    raise AssertionError("reference cell has no float")


def test_reference_passes_its_own_checks():
    ref = reference()
    assert set(ref) == {f"{m}/{p}" for m in sweeps.MODELS for p in sweeps.COLD_PROPERTIES}
    assert checks.within_tolerance(ref, ref, TOLERANCE, "ref") == []
    assert checks.identical(ref, copy.deepcopy(ref), "ref") == []


def test_value_one_step_beyond_tolerance_is_rejected():
    ref = reference()
    key = sorted(ref)[0]
    name, stat = first_float(ref[key])
    value = ref[key]["distributions"][name][stat]
    bound = TOLERANCE * max(1.0, abs(value))
    inside = copy.deepcopy(ref)
    inside[key]["distributions"][name][stat] = value + bound * 0.5
    assert checks.within_tolerance(inside, ref, TOLERANCE, "op") == []
    assert checks.identical(inside, ref, "op") != []  # not bit-identical
    edge = value + bound
    beyond = copy.deepcopy(ref)
    beyond[key]["distributions"][name][stat] = math.nextafter(edge, math.inf) + bound * 1e-6
    problems = checks.within_tolerance(beyond, ref, TOLERANCE, "op")
    assert len(problems) == 1 and key in problems[0]


def test_dropped_cell_is_rejected():
    ref = reference()
    dropped = dict(ref)
    key = sorted(ref)[-1]
    del dropped[key]
    for problems in (
        checks.within_tolerance(dropped, ref, TOLERANCE, "op"),
        checks.identical(dropped, ref, "op"),
    ):
        assert problems and key in problems[0]


def test_changed_structure_and_nan_are_handled():
    ref = {"m/p": {"scalars": {"rho": float("nan"), "n": 3}, "series": {"a": [1.0, 2.0]}}}
    same = copy.deepcopy(ref)
    assert checks.within_tolerance(same, ref, TOLERANCE, "op") == []
    shorter = copy.deepcopy(ref)
    shorter["m/p"]["series"]["a"].pop()
    assert checks.within_tolerance(shorter, ref, TOLERANCE, "op")
    number = copy.deepcopy(ref)
    number["m/p"]["scalars"]["rho"] = 0.5
    assert checks.within_tolerance(number, ref, TOLERANCE, "op")


def test_wrong_index_hit_is_rejected():
    oracle = [("a::x", 0.9), ("b::y", 0.8)]
    served = [{"key": "a::x", "score": 0.9}, {"key": "b::y", "score": 0.8}]
    assert checks.index_hits_equal(served, oracle, "q") == []
    wrong = [{"key": "a::x", "score": 0.9}, {"key": "c::z", "score": 0.8}]
    assert checks.index_hits_equal(wrong, oracle, "q")
    assert checks.recall(["a::x", "c::z"], ["a::x", "b::y"]) == 0.5


def test_restart_check_rejects_a_cache_miss_and_a_perturbed_sweep():
    run = sweeps.SweepRun("sweep-restart", seed=0, workdir="unused")
    ref = run.reference

    def fake_sweep(cells, misses=0):
        results = []
        for key, payload in cells.items():
            model, prop = key.split("/")
            result = types.SimpleNamespace(to_jsonable=lambda payload=payload: payload)
            results.append(types.SimpleNamespace(model_name=model, property_name=prop, result=result))
        return types.SimpleNamespace(
            cells=results, failures=[], skipped=[],
            cache_stats=types.SimpleNamespace(misses=misses),
        )

    assert run.check(fake_sweep(ref)) == []  # becomes the run's first op
    assert run.check(fake_sweep(ref)) == []
    assert any("cache misses" in p for p in run.check(fake_sweep(ref, misses=1)))
    perturbed = copy.deepcopy(ref)
    key = sorted(perturbed)[0]
    name, stat = first_float(perturbed[key])
    perturbed[key]["distributions"][name][stat] += 1e-6
    problems = run.check(fake_sweep(perturbed))
    assert any("tolerance" in p for p in problems)
    assert any("bit-identical" in p for p in problems)
