"""Output checks.  Each returns a list of problems; an empty list passes.

Sweep results are compared in their lossless journal form
(``PropertyResult.to_jsonable``), keyed ``"model/property"``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence

Cells = Dict[str, object]  # "model/property" -> PropertyResult.to_jsonable()


def sweep_cells(sweep) -> Cells:
    return {
        f"{cell.model_name}/{cell.property_name}": cell.result.to_jsonable()
        for cell in sweep.cells
    }


def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def identical(cells: Cells, expected: Cells, what: str) -> List[str]:
    """Bit-identity: same cells, and every cell's canonical JSON equal."""
    problems = _same_keys(cells, expected, what)
    for key in sorted(set(cells) & set(expected)):
        if canonical(cells[key]) != canonical(expected[key]):
            problems.append(f"{what}: cell {key} is not bit-identical")
    return problems


def within_tolerance(cells: Cells, reference: Cells, tolerance: float, what: str) -> List[str]:
    """Every number within ``tolerance * max(1, |reference|)`` of the reference."""
    problems = _same_keys(cells, reference, what)
    for key in sorted(set(cells) & set(reference)):
        _compare(cells[key], reference[key], tolerance, f"{what}: {key}", problems)
    return problems


def _same_keys(cells: Cells, expected: Cells, what: str) -> List[str]:
    problems = []
    missing = sorted(set(expected) - set(cells))
    extra = sorted(set(cells) - set(expected))
    if missing:
        problems.append(f"{what}: missing cells {missing}")
    if extra:
        problems.append(f"{what}: unexpected cells {extra}")
    return problems


def _compare(actual, expected, tolerance: float, path: str, problems: List[str]) -> None:
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        if isinstance(expected, dict) and isinstance(actual, dict):
            if set(actual) != set(expected):
                problems.append(f"{path}: keys differ")
                return
            for key in expected:
                _compare(actual[key], expected[key], tolerance, f"{path}.{key}", problems)
        elif isinstance(expected, list) and isinstance(actual, list):
            if len(actual) != len(expected):
                problems.append(f"{path}: length {len(actual)} != {len(expected)}")
                return
            for i, (a, e) in enumerate(zip(actual, expected)):
                _compare(a, e, tolerance, f"{path}[{i}]", problems)
        elif actual != expected:
            problems.append(f"{path}: {actual!r} != {expected!r}")
        return
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        problems.append(f"{path}: {actual!r} is not a number")
        return
    if math.isnan(expected) or math.isnan(actual):
        if not (math.isnan(expected) and math.isnan(actual)):
            problems.append(f"{path}: {actual!r} != {expected!r}")
        return
    if abs(actual - expected) > tolerance * max(1.0, abs(expected)):
        problems.append(f"{path}: {actual!r} is beyond tolerance of {expected!r}")


def zero_misses(cache_stats, what: str) -> List[str]:
    if cache_stats is None or cache_stats.misses != 0:
        misses = None if cache_stats is None else cache_stats.misses
        return [f"{what}: expected zero cache misses, saw {misses}"]
    return []


def index_hits_equal(served: Sequence[Dict[str, object]], oracle, what: str) -> List[str]:
    """Served ``prune=off`` hits equal the direct ``ColumnIndex`` query."""
    expected = [{"key": key, "score": score} for key, score in oracle]
    if list(served) != expected:
        return [f"{what}: served hits differ from the ColumnIndex oracle"]
    return []


def recall(served_keys: Sequence[str], exact_keys: Sequence[str]) -> float:
    return len(set(served_keys) & set(exact_keys)) / len(exact_keys) if exact_keys else 1.0
