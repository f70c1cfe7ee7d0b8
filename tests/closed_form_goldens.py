"""Replay the closed-form command lines of the CLI goldens, without numpy.

Every line of ``data/cli_commands.json`` and ``data/poly_rows.json`` except
the ``oracle``, ``flags`` and ``verify`` commands runs through ``cli.main``
in this interpreter; its exit code and stdout must equal the golden's, and
numpy must never be imported.  The script needs the standard library only:

    PYTHONPATH=src python tests/closed_form_goldens.py

``test_imports.py`` runs it in the tier-1 suite with numpy made unimportable.
"""

import contextlib
import io
import json
import pathlib
import sys

from dotbinom import cli

DATA = pathlib.Path(__file__).resolve().with_name("data")
GOLDENS = ("cli_commands.json", "poly_rows.json")
NUMPY_COMMANDS = {"oracle", "flags", "verify"}


def main() -> int:
    replayed = differed = 0
    for name in GOLDENS:
        golden = json.loads((DATA / name).read_text(encoding="utf-8"))
        for line, want in golden.items():
            argv = line.split()
            if argv[0] in NUMPY_COMMANDS:
                continue
            out = io.StringIO()
            # the golden holds stdout only; an exit-1 line's error goes nowhere
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            replayed += 1
            if (code, out.getvalue()) != (want["exit"], want["stdout"]):
                differed += 1
                print(f"differs: {line}")
    # None also when numpy was made unimportable before the package was loaded
    numpy_loaded = sys.modules.get("numpy") is not None
    print(f"replayed {replayed} lines, {differed} differed, numpy loaded: {numpy_loaded}")
    return 1 if differed or numpy_loaded else 0


if __name__ == "__main__":
    sys.exit(main())
