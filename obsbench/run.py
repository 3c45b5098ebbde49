"""Benchmark entry point.

Run from the root of a repository checkout::

    python3 obsbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads are ``sweep-cold``, ``sweep-restart`` and ``serve-mixed`` (see
``obsbench/WORKLOADS.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  Header lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.  Outside a checkout (no ``src/repro``) it exits with 2.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-cold", "sweep-restart", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from benchlib.host import scrub_environment, stamp

    removed = scrub_environment()  # before numpy loads OpenBLAS
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a repository checkout (no src/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    run_root = os.path.join(root, ".bench_run")
    workdir = os.path.join(run_root, f"{args.workload}-{os.getpid()}")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp  # the program and the serve child write only here
    tempfile.tempdir = tmp

    def say(line: str) -> None:
        print(line, flush=True)

    from benchlib import workloads

    try:
        for line in stamp(removed):
            say(line)
        say(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        if args.workload == "serve-mixed":
            outcome = workloads.run_serve(args.seed, args.seconds, bool(args.trace), workdir, say)
        else:
            outcome = workloads.run_sweep(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir, say
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run_root)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
