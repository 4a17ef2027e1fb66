"""Run ``repro serve`` with its layer entry points traced.

The traced serve-cold run launches the server through this script
instead of ``python3 -m repro``: it installs the span wrappers of
:mod:`tracing` (tagging each job's spans with its label), runs the
unmodified CLI, and writes the spans when the server exits (SIGINT)::

    python3 perfbench/serve_traced.py SPANS.json --jobs 1 serve --port 0
"""

from __future__ import annotations

import sys
from pathlib import Path

import grid
import tracing


def main(argv):
    spans_path, repro_args = Path(argv[0]), argv[1:]
    grid.import_repro()
    tracer = tracing.Tracer()
    tracing.install_layers(tracer, serve=True)
    from repro.cli import main as repro_main
    try:
        return repro_main(repro_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
