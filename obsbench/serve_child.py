"""Launch ``repro serve`` for the benchmark: ``python3 obsbench/serve_child.py <cli args>``.

With ``OBSBENCH_SPANS=<path>`` in the environment it first installs the
benchmark's layer wrappers (recording off); ``SIGUSR1`` turns recording
on, and the spans are written to ``<path>`` once the CLI returns, which it
does on ``SIGTERM``.  Without it this is ``python -m repro`` unchanged.
"""

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib.layers import install_program  # noqa: E402
from benchlib.trace import Tracer  # noqa: E402


def main() -> int:
    from repro.cli import main as cli_main

    spans_path = os.environ.get("OBSBENCH_SPANS")
    tracer = None
    if spans_path:
        tracer = Tracer(prefix="s")
        install_program(tracer)
        signal.signal(signal.SIGUSR1, lambda signum, frame: setattr(tracer, "enabled", True))
    code = cli_main(sys.argv[1:])
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
