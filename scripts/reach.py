"""Reachability: run every command of scripts/parity.py in process under
``sys.setprofile`` and list each function defined in ``src/medext`` that no
run calls.

    python scripts/reach.py

One ``medext/<module>.py:<line> <qualified name>`` line per function that
was never entered, nested functions and backward rules included; lambdas,
comprehensions and class bodies are left out.  A listed function is
test-only surface, an error path the runs do not take, or dead code.  The
runs use the working tree's ``src/``, in a temporary directory, as
parity.py's do.  The profile starts before medext is imported, so run it in
a fresh interpreter: one that has imported medext already misses what the
import itself calls.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from pathlib import Path

import parity

Key = tuple[str, int, str]  # (file, first line, name) of a code object


def defined(package: Path) -> dict[Key, str]:
    """Every named function of the package's modules -> its listing line."""
    found = {}
    for path in sorted(package.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                found[key] = f"medext/{path.name}:{code.co_firstlineno} {code.co_qualname}"
    return found


def unreached(runs: list[tuple[str, list[str]]]) -> list[str]:
    """The functions of ``src/medext`` that none of ``runs`` enters, in
    file and line order.  Runs in a temporary directory."""
    called: set[types.CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    home = os.getcwd()
    sys.path.insert(0, str(parity.ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="medext-reach-") as tmp:
        os.chdir(tmp)
        parity.write_inputs()
        sys.setprofile(profile)
        try:
            import medext
            from medext.cli import main

            for _, argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(argv)
        finally:
            sys.setprofile(None)
            os.chdir(home)
    package = Path(medext.__file__).parent
    entered = {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}
    listing = defined(package)
    return [line for key, line in sorted(listing.items()) if key not in entered]


if __name__ == "__main__":
    for line in unreached(parity.commands()):
        print(line)
