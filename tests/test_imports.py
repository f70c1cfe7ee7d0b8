"""The closed-form commands and the package import run without numpy.

Each check starts a fresh interpreter, because this test process has
usually imported the oracle, and so numpy, already.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

from dotbinom import cli

# numpy is made unimportable before the package is imported
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                 "from dotbinom import cli; sys.exit(cli.main(sys.argv[1:]))")

# the closed-form lines of the CLI goldens, replayed with numpy unimportable
GOLDENS = ("import runpy, sys; sys.modules['numpy'] = None; "
           "runpy.run_path(sys.argv[1], run_name='__main__')")
GOLDENS_SCRIPT = pathlib.Path(__file__).with_name("closed_form_goldens.py")

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


def test_closed_form_goldens_replay_without_numpy():
    res = run_python("-c", GOLDENS, str(GOLDENS_SCRIPT))
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout == "replayed 175 lines, 0 differed, numpy loaded: False\n"


def test_cli_import_loads_no_numpy():
    res = run_python("-c", "import sys, dotbinom.cli; print('numpy' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


# modules no closed-form command but poly uses: the records are NamedTuples,
# and fractions, csv and json are imported by the functions that use them
UNUSED_AT_COLD_START = ("dataclasses", "inspect", "fractions", "decimal", "csv", "json",
                        "numpy")


def test_cold_start_loads_no_unused_module():
    """The package, the CLI and each plain closed-form command but poly (whose
    polyq holds dataclasses) load none of UNUSED_AT_COLD_START."""
    commands = [argv for name, argv in sorted(CLOSED_FORM_ARGV.items()) if name != "poly"]
    script = f"""
import contextlib, io, sys
def loaded():
    return [m for m in {UNUSED_AT_COLD_START!r} if m in sys.modules]
import dotbinom
print('dotbinom', loaded())
from dotbinom import cli
print('cli', loaded())
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ['--format', 'plain']) == 0
    print(argv[0], loaded())
"""
    res = run_python("-c", script)
    assert res.returncode == 0, res.stderr
    stages = ["dotbinom", "cli", *(argv[0] for argv in commands)]
    assert res.stdout == "".join(f"{stage} []\n" for stage in stages)


def test_oracle_import_loads_no_process_pool():
    """Every count runs in-process, so the oracle imports no pool machinery."""
    res = run_python("-c", "import sys, dotbinom.oracle; "
                           "print('multiprocessing' in sys.modules, "
                           "'concurrent.futures' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False False\n"


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


def test_lazy_names_are_exported_once():
    """A name dropped from one export list but left in the other fails."""
    import dotbinom

    assert len(dotbinom.__all__) == len(set(dotbinom.__all__))
    assert set(dotbinom._LAZY_NAMES) <= set(dotbinom.__all__)


def _imports(path):
    """(module, name) of each import in ``path``, the package prefix dropped;
    name is None where a whole module is imported."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("dotbinom."), None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in (None, "dotbinom"):
                    yield alias.name, None
                else:
                    yield node.module.removeprefix("dotbinom."), alias.name


def test_oracle_imports_no_closed_form_but_gaussian_binom():
    """The oracle enumerates from definitions: of the closed forms it imports
    only gaussian_binom, for budget estimates, and neither polyq nor verify."""
    imports = set(_imports(pathlib.Path(cli.__file__).with_name("oracle.py")))
    assert {name for module, name in imports if module == "closed"} == {"gaussian_binom"}
    assert not {module for module, _ in imports} & {"polyq", "verify"}


# imported and never read: the benchmark tracer counts calls through it
READ_ELSEWHERE = {("oracle", "contains")}


def _unread_imports(path):
    """Names a module-level import binds in ``path`` that the module neither
    reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and (path.stem, name) not in READ_ELSEWHERE:
                    yield name


def test_every_module_level_import_is_read():
    package = pathlib.Path(cli.__file__).parent
    unread = {(path.stem, name) for path in sorted(package.glob("*.py"))
              for name in _unread_imports(path)}
    assert unread == set()


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
