"""The closed-form commands and the package import run without numpy.

Each check starts a fresh interpreter, because this test process has
usually imported the oracle, and so numpy, already.
"""

import subprocess
import sys

import pytest

from dotbinom import cli

# numpy is made unimportable before the package is imported
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                 "from dotbinom import cli; sys.exit(cli.main(sys.argv[1:]))")

CLOSED_FORM_ARGV = {
    "bracket": ["bracket", "--q", "7", "--n", "5", "--flavor", "timelike_lambda",
                "--compare-paper"],
    "binom": ["binom", "--q", "9", "--n", "6", "--k", "3", "--variant", "ld"],
    "triangle": ["triangle", "--q", "5", "--rows", "6"],
    "group-order": ["group-order", "--q", "11", "--n", "4", "--compare-paper"],
    "mobius": ["mobius", "--q", "3", "--n", "6"],
    "limits": ["limits", "--n", "9"],
    "poly": ["poly", "--q-class", "1", "--n", "5", "--checks"],
}


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("command", sorted(CLOSED_FORM_ARGV))
def test_closed_form_command_runs_without_numpy(command, fmt, capsys):
    argv = CLOSED_FORM_ARGV[command] + ["--format", fmt]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    res = run_python("-c", WITHOUT_NUMPY, *argv)
    assert res.returncode == 0, res.stderr
    assert res.stdout == want


def test_cli_import_loads_no_numpy():
    res = run_python("-c", "import sys, dotbinom.cli; print('numpy' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_lazy_exports_resolve_after_bare_import():
    script = """
import sys
import dotbinom
lazy = ('dotbinom.oracle', 'dotbinom.polyq', 'dotbinom.verify', 'numpy')
assert not any(m in sys.modules for m in lazy), [m for m in lazy if m in sys.modules]
assert set(dotbinom.__all__) <= set(dir(dotbinom))
for name in dotbinom.__all__:
    getattr(dotbinom, name)
for name in ('oracle', 'polyq', 'verify'):
    assert getattr(dotbinom, name) is sys.modules['dotbinom.' + name]
from dotbinom import oracle, quadspace, symsets
assert dotbinom.build_poset is oracle.build_poset
assert dotbinom.run_verify is dotbinom.verify.run_verify
assert dotbinom.count_symmetric_ksets is symsets.count_symmetric_ksets
assert not hasattr(oracle, 'count_symmetric_ksets')
assert oracle.PosetKind is quadspace.PosetKind is dotbinom.PosetKind
assert oracle.DEFAULT_BUDGET is quadspace.DEFAULT_BUDGET
assert oracle.DEFAULT_POSET_BUDGET is quadspace.DEFAULT_POSET_BUDGET
print('ok')
"""
    res = run_python("-c", script)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ok\n"


def test_unknown_package_attribute_is_an_attribute_error():
    import dotbinom

    with pytest.raises(AttributeError):
        dotbinom.no_such_name  # noqa: B018


@pytest.mark.parametrize("argv", [
    ["oracle", "count", "--q", "3", "--n", "2"],
    ["oracle", "poset", "--q", "3", "--n", "2"],
    ["flags", "--q", "3", "--n", "2"],
    ["verify", "--q", "3", "--max-n", "2"],
])
def test_numpy_commands_without_numpy_print_one_error_line(argv):
    res = run_python("-c", WITHOUT_NUMPY, *argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "error: this command needs numpy, which is not installed\n"


@pytest.mark.parametrize("name", [command.name for command in cli.COMMANDS])
def test_help_runs_without_numpy(name):
    res = run_python("-c", WITHOUT_NUMPY, *name.split(), "--help")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith(f"usage: dotbinom {name} [-h]")
