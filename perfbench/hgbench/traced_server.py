"""Run the program's ``serve`` entry point with spans around its public functions.

Usage: ``python traced_server.py SPANS_OUT serve [serve options...]``.
The spans are written to ``SPANS_OUT`` after the service shuts down.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, "src")

from hgbench import instrument  # noqa: E402
from hgbench.spans import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    from repro.experiments import cli

    tracer = Tracer()
    instrument.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
