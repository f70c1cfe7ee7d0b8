"""The range checks the oracle relies on hold under ``python -O``."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).with_name("optimized_checks.py")


def test_optimized_checks_pass_under_python_O():
    res = subprocess.run([sys.executable, "-O", str(SCRIPT)], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "FAIL" not in res.stdout
    # the verify reference, 2 posets, 12 count cells at the default budget,
    # 4 beyond it and 3 group checks
    assert len(res.stdout.splitlines()) == 22
