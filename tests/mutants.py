"""Mutation gate: each row breaks the package in one place, and the row's
named tests must catch it.

A row is (name, file, old text, new text, test ids).  The old text must
occur exactly once in the file.  The runner copies ``src/`` and ``tests/``
to a temporary directory, checks that every named test passes there
unmutated, then applies one row at a time and runs the row's tests in a
subprocess.  A row is killed only if pytest exits 1 and reports every named
test failed; a collection error does not count.  Run it from anywhere:

    python tests/mutants.py

It prints one line per row and exits 1 if any row survives or its old text
is not found exactly once.  ``test_mutants.py`` checks the table alone in
the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORACLE = "src/dotbinom/oracle.py"
POLYQ = "src/dotbinom/polyq.py"
CLOSED = "src/dotbinom/closed.py"
REPORT = "src/dotbinom/report.py"

MUTANTS = (
    ("never swap the nonzero classes", ORACLE,
     "if m != k and klass[products[n]] == _CLASS_CODES[SquareClass.NON_SQUARE]:",
     "if False:",
     ["tests/test_oracle.py::test_count_table_cells_equal_the_frozen_ones"]),
    ("swap the nonzero classes at every k > n/2", ORACLE,
     "if m != k and klass[products[n]] == _CLASS_CODES[SquareClass.NON_SQUARE]:",
     "if m != k:",
     ["tests/test_oracle.py::test_count_table_cells_equal_the_frozen_ones"]),
    ("plain diagonal sort", ORACLE,
     "sorted((field.index(d) for d in ambient.gram_diag), key=lambda d: (d == 1, d))",
     "sorted(field.index(d) for d in ambient.gram_diag)",
     ["tests/test_oracle.py::test_count_table_cells_equal_the_frozen_ones"]),
    ("skip the every-mask check", ORACLE,
     "    if words > budget:",
     "    if False:",
     ["tests/test_oracle.py::test_poset_cells_equal_the_frozen_ones"]),
    ("Lorentzian poset classified with the Euclidean class", ORACLE,
     "SquareClass.SQUARE if poset_kind is PosetKind.EUCLIDEAN else SquareClass.NON_SQUARE",
     "SquareClass.SQUARE",
     ["tests/test_oracle.py::test_poset_cells_equal_the_frozen_ones",
      "tests/test_oracle.py::test_lorentzian_poset_frozen"]),
    ("pivot patterns found from the left", ORACLE,
     'np.searchsorted(starts, codes, side="right") - 1',
     'np.searchsorted(starts, codes, side="left") - 1',
     ["tests/test_oracle.py::test_poset_cells_equal_the_frozen_ones"]),
    ("no x = 0 carry in a free column", ORACLE,
     "        new = old.copy()\n",
     "        new = np.zeros_like(old)\n",
     ["tests/test_oracle.py::test_count_table_cells_equal_the_frozen_ones",
      "tests/test_oracle.py::test_count_lines_frozen"]),
    ("positive Mobius sign", ORACLE,
     "mu[first:first + len(blocks[0])] = -sum(",
     "mu[first:first + len(blocks[0])] = sum(",
     ["tests/test_oracle.py::test_poset_cells_equal_the_frozen_ones"]),
    ("skip the total check", ORACLE,
     "if tallied == total else (",
     "if True else (",
     ["tests/test_oracle.py::test_a_lost_count_is_a_mismatch_at_every_entry_point[dot_space]",
      "tests/test_oracle.py::test_a_lost_count_is_a_mismatch_at_every_entry_point"
      "[lambda_dot_space]"]),
    ("drop the class-3 row that restates its class", POLYQ,
     "    (3, (1, 2)),  # restates its class\n",
     "",
     ["tests/test_polyq.py::test_published_sign_disagrees_only_at_known_cells"]),
    ("report the printed sign as the computed one", POLYQ,
     "        computed=computed,\n",
     "        computed=published,\n",
     ["tests/test_polyq.py::test_symmetry_report_frozen",
      "tests/test_cli.py::test_poly_checks_columns",
      "tests/test_cli.py::test_poly_rows_match_golden"]),
    ("label digits high digit first", ORACLE,
     '"".join(_LABEL_DIGITS[d] for d in row)',
     '"".join(_LABEL_DIGITS[d] for d in reversed(row))',
     ["tests/test_cli.py::test_oracle_poset_golden"]),
    ("snapshots compared by ambient and kind alone", ORACLE,
     "return self.ambient, self.poset_kind, ranks",
     "return self.ambient, self.poset_kind",
     ["tests/test_oracle.py::test_snapshots_with_other_nodes_compare_unequal"]),
    ("dataclasses imported by the closed forms", CLOSED,
     "import math\n",
     "import math\nfrom dataclasses import dataclass\n",
     ["tests/test_imports.py::test_cold_start_loads_no_unused_module"]),
    ("no local Fraction import in asymptotic_gap", CLOSED,
     "    from fractions import Fraction\n\n    ratio = ",
     "    ratio = ",
     ["tests/test_closed.py::test_asymptotic_gap"]),
    ("no local json import in render_json", REPORT,
     "    import json\n\n",
     "",
     ["tests/test_cli.py::test_table_commands_match_golden"]),
)


def failed_tests(root: Path, ids) -> tuple[int, set]:
    """(pytest's exit code, the ids it reports failed) for ``ids`` run in ``root``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    failed = {line[len("FAILED "):].split(" - ")[0]
              for line in res.stdout.splitlines() if line.startswith("FAILED ")}
    return res.returncode, failed


def main() -> int:
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        ids = sorted({i for *_, row_ids in MUTANTS for i in row_ids})
        code, failed = failed_tests(root, ids)
        if code != 0:
            print(f"FAIL unmutated: pytest exit {code}, failed {sorted(failed)}")
            return 1
        for name, file, old, new, row_ids in MUTANTS:
            path = root / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"FAIL {name}: old text found {text.count(old)} times in {file}")
                faults += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                code, failed = failed_tests(root, row_ids)
            finally:
                path.write_text(text, encoding="utf-8")
            killed = code == 1 and failed >= set(row_ids)
            print(f"{'killed' if killed else 'FAIL survived'} {name}: pytest exit {code}, "
                  f"{len(failed & set(row_ids))} of {len(row_ids)} named tests failed")
            faults += not killed
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
