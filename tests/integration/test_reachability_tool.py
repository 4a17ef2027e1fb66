"""Smoke test: ``tools/reachability.py`` separates called functions
from uncalled ones."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reachability.py"


def test_lists_only_functions_the_commands_never_call(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), "--exclude", "service/", "list"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    listed = {line.split()[-1] for line in result.stdout.splitlines()
              if "  cli.py:" in line}
    assert "cmd_serve" in listed
    assert "cmd_list" not in listed and "main" not in listed
    assert "service/" not in result.stdout
    assert "functions listed as never called" in result.stdout


def test_a_raising_command_still_reports(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    result = subprocess.run(
        [sys.executable, str(TOOL), "--exclude", "service/", "--",
         f"--scale 0.05 --benchmarks hotspot trace hotspot {missing}",
         "list"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert result.returncode == 1
    assert "Traceback" in result.stderr
    assert "FileNotFoundError" in result.stderr
    assert "command exited 1: repro --scale 0.05" in result.stderr
    # The command after the failing one still ran and was recorded.
    listed = {line.split()[-1] for line in result.stdout.splitlines()
              if "  cli.py:" in line}
    assert "cmd_list" not in listed
    assert "functions listed as never called" in result.stdout
