"""The mutation gate's table (``mutants.py``) still points at live code: each
row's old text occurs exactly once in its file.  The gate itself, which runs
each mutant against its named tests, is a separate CI step."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name,file,old,new,ids", MUTANTS, ids=[row[0].replace(" ", "-") for row in MUTANTS])
def test_each_mutant_old_text_occurs_once(name, file, old, new, ids):
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
    assert new != old and ids
