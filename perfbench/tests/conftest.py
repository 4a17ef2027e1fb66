"""Make the benchmark's modules and the program under test importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import grid  # noqa: E402

grid.import_repro()
