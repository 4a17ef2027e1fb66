#!/usr/bin/env python3
"""List the ``src/repro`` functions that a set of ``repro`` commands
never calls.

Each positional argument is one ``repro`` command line, quoted as one
string.  The commands run one after another in this process under a
``sys.setprofile`` / ``threading.setprofile`` call recorder (stdlib
only: no coverage package), then every function and method defined in
``src/repro`` that never saw a call is listed with its line count.
Imports happen under the recorder too, so code that runs at import
(registry decorators, module-level helpers) counts as reached.

Pool workers do not inherit the recorder, so keep the default
``--jobs 1``: with more workers the simulation itself runs unrecorded.

A ``serve`` command runs in a daemon thread; the tool waits until its
port accepts connections and goes on with the next command, so later
``submit`` commands (same ``--port``) reach it.  The server is left
running until the tool exits.

Run from the repository root; ``src`` is put on the import path.  The
full-scale artifact, a 15-SM launch and a serve/submit smoke::

    python tools/reachability.py \\
        "figures --check" \\
        "run hotspot warped_gates --n-sms 15" \\
        "serve --port 8765" \\
        "submit hotspot warped_gates --port 8765"

Global flags go inside the quotes; put ``--`` before the commands
when the first one starts with a flag (``-- "--scale 0.25 figures
--check"``).  A smaller scale runs quicker but reaches less of the
dense kernel.  ``--exclude service/ --exclude cli.py`` drops whole
files or directories from the report.  A finding is a candidate for
deletion, not a verdict: a path no listed command takes may still be
a product path.  One known path depends on timing, not on code:
``JobTicket.wait`` (``repro/service/core.py``) is reached in the
serve/submit smoke only when the submit's ``/result`` request has to
wait for its job, so two runs of the same commands can differ by about
3 lines.  This is a diagnostic, not a CI gate.  A command that
fails (a non-zero exit or an exception, whose traceback goes to
stderr) does not stop the others; the report still prints, and the
tool exits 1.
"""

from __future__ import annotations

import argparse
import ast
import shlex
import socket
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: (absolute file name, first line) of every code object entered.
Key = Tuple[str, int]


class Recorder:
    """Collects the code objects entered by any profiled thread."""

    def __init__(self) -> None:
        self.codes: Set[object] = set()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def start(self) -> None:
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self) -> Set[Key]:
        return {(code.co_filename, code.co_firstlineno)
                for code in list(self.codes)}


def defined_functions(
        path: Path) -> Iterator[Tuple[int, str, int, str]]:
    """``(first line, qualified name, line count, enclosing function)``
    of every function in ``path``, the enclosing function's qualified
    name being empty unless the function is nested in one.  The first
    line is the first decorator's, as in the function's code object."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def walk(node: ast.AST, prefix: str, outer: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = prefix + child.name
                yield first, name, child.end_lineno - first + 1, outer
                yield from walk(child, name + ".<locals>.", name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", outer)
            else:
                yield from walk(child, prefix, outer)

    yield from walk(tree, "", "")


def _wait_for_port(host: str, port: int, thread: threading.Thread,
                   timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not thread.is_alive():
            raise SystemExit(f"serve on port {port} exited early")
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.1)
    raise SystemExit(f"serve on port {port} did not start in {timeout}s")


def run_commands(commands: List[str]) -> Dict[str, int]:
    """Run each ``repro`` command line in-process; returns exit codes.

    A command that raises gets exit code 1 and its traceback on stderr,
    and the next command runs.
    """
    from repro.cli import build_parser, main

    codes: Dict[str, int] = {}
    for line in commands:
        argv = shlex.split(line)
        print(f"reachability: repro {line}", file=sys.stderr, flush=True)
        try:
            args = build_parser().parse_args(argv)
            if args.command == "serve":
                server = threading.Thread(target=main, args=(argv,),
                                          name="repro-serve", daemon=True)
                server.start()
                _wait_for_port(args.host, args.port, server)
                codes[line] = 0
            else:
                codes[line] = main(argv)
        except SystemExit as exc:
            codes[line] = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # One failing command must not lose the others' recording.
            traceback.print_exc(file=sys.stderr)
            codes[line] = 1
    return codes


def report(reached: Set[Key], exclude: List[str]
           ) -> Tuple[List[Tuple[str, int, str, int]], int, int]:
    """Uncalled functions as ``(file, line, name, lines)`` rows, plus
    the total function count and line count considered.

    A function nested in an uncalled one is not listed again, and
    nested functions add nothing to the line totals: their lines are
    already their enclosing function's.
    """
    rows = []
    total = total_lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if any(rel.startswith(prefix) for prefix in exclude):
            continue
        filename = str(path)
        uncalled: Set[str] = set()
        for first, name, lines, outer in defined_functions(path):
            total += 1
            if not outer:
                total_lines += lines
            if (filename, first) in reached:
                continue
            uncalled.add(name)
            if outer not in uncalled:
                rows.append((rel, first, name, lines))
    return rows, total, total_lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("commands", nargs="+", metavar="COMMAND",
                        help="one quoted repro command line, e.g. "
                             "\"figures --check\"")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="PREFIX",
                        help="skip files under src/repro whose relative "
                             "path starts with PREFIX (repeatable)")
    opts = parser.parse_args()

    sys.path.insert(0, str(SRC))
    recorder = Recorder()
    recorder.start()
    try:
        codes = run_commands(opts.commands)
    finally:
        recorder.stop()

    rows, total, total_lines = report(recorder.reached(), opts.exclude)
    by_file: Dict[str, int] = {}
    for rel, _, _, lines in rows:
        by_file[rel] = by_file.get(rel, 0) + lines
    for rel, first, name, lines in rows:
        print(f"{lines:5d}  {rel}:{first}  {name}")
    print()
    print("uncalled lines by file:")
    for rel, lines in sorted(by_file.items(), key=lambda kv: -kv[1]):
        print(f"{lines:6d}  {rel}")
    uncalled = sum(row[3] for row in rows)
    print(f"\n{len(rows)} of {total} functions listed as never called: "
          f"{uncalled} of {total_lines} function lines")
    failed = {line: code for line, code in codes.items() if code}
    for line, code in failed.items():
        print(f"command exited {code}: repro {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
