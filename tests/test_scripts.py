"""The scripts under scripts/ run to completion on the current API."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    """Each script puts the repository's src/ on its own import path."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_memory_table_estimates_match_tape():
    matches = [line for line in run_script("memory_table.py").splitlines() if "match=" in line]
    assert len(matches) == 3
    assert all("match=True" in line for line in matches), matches


def test_gradsim_suite(tmp_path):
    run_script("run_gradsim_suite.py", "--batches", 4, "--out", tmp_path)
    assert (tmp_path / "gradsim_summary.json").exists()
