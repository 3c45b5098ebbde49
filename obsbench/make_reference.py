"""Write the sweep reference results: ``python3 obsbench/make_reference.py``.

Runs one cold sweep of the ``sweep-cold`` matrix (which contains every
``sweep-restart`` cell) and stores each cell's lossless result in
``obsbench/reference/sweep_cells.json``.  Run it from the repository root,
and only when a change to the program's numerics is intended.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, HERE)
    from benchlib.host import scrub_environment

    scrub_environment()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from benchlib import checks, sweeps

    sweep = sweeps.observatory().sweep(list(sweeps.MODELS), list(sweeps.COLD_PROPERTIES))
    if sweep.failures or sweep.skipped:
        print(f"error: sweep incomplete: {sweep.failures} {sweep.skipped}", file=sys.stderr)
        return 1
    with open(sweeps.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(checks.sweep_cells(sweep), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(sweep.cells)} cells to {sweeps.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
