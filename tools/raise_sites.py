"""List every ``raise`` statement in ``src/weightsep`` that the tests never
execute.

    python tools/raise_sites.py [PYTEST_ARGS ...]

Runs pytest in this process, from the root of the checkout, under
:func:`sys.settrace`: with no arguments, the whole suite that
``pyproject.toml``'s ``testpaths`` names. Only frames whose code lies in
``src/weightsep`` are traced line by line. Each ``raise`` statement (found
with :mod:`ast`) whose first line never ran is printed as
``file:line: source``. Exits 1 when any is listed, else 0, whatever the
tests' own verdicts. Commands that tests run in child processes are not
traced, so a ``raise`` that only a child process reaches is listed.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weightsep"


def raise_sites():
    """``{(path, line): first source line}`` of each ``raise`` statement in
    the package's modules."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise):
                source = ast.get_source_segment(text, node).splitlines()[0]
                sites[(str(path), node.lineno)] = source
    return sites


def executed_lines(pytest_args):
    """Run pytest on ``pytest_args`` in this process; return the set of
    ``(path, line)`` executed in the package's modules."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    in_package = {}
    executed = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = os.path.realpath(name).startswith(prefix)
        return trace_lines if in_package[name] else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {(os.path.realpath(name), line) for name, line in executed}


def main():
    os.chdir(ROOT)
    executed = executed_lines(sys.argv[1:])
    sites = raise_sites()
    missed = sorted(site for site in sites if site not in executed)
    print(f"{len(missed)} of {len(sites)} raise statements never executed:")
    for path, line in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line}: {sites[(path, line)]}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
