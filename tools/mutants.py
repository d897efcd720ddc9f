"""Mutation analysis of one function in ``src/weightsep``: which one-operator
changes to it does a pytest selection fail on?

    python tools/mutants.py MODULE.FUNCTION [PYTEST_ARGS ...]

for example ``python tools/mutants.py harness._objective tests/test_harness.py
tests/test_golden.py``. ``FUNCTION`` may be a method, as in
``network.Network.replace_parameters``. With no pytest arguments the whole
suite that ``pyproject.toml``'s ``testpaths`` names runs.

Each mutant changes one site of the function:
- a comparison boundary (``<`` and ``<=``, ``>`` and ``>=``), ``==`` and
  ``!=``, or ``is`` and ``is not``, each swapped for the other;
- ``and`` and ``or``, each swapped for the other;
- ``+`` and ``-``, or ``*`` and ``/``, each swapped for the other, in an
  expression or an augmented assignment such as ``x += y`` (``@`` is never
  swapped);
- a ``not`` dropped;
- an integer constant moved by +1 or -1.

The function is written back with :func:`ast.unparse`, the rest of the
module as it stands. Each mutant runs in its own temporary copy of the
checkout, never in the checkout itself, as ``pytest -x -q`` at one BLAS
thread, two mutants at a time. A mutant is killed when pytest fails or
runs past ``TIMEOUT_S``. First the function written back unmutated must
pass, else nothing is scored. Prints ``killed`` or ``survived`` for each
mutant with its line and change, then a score line; exits 1 when any
mutant survives, else 0.
"""

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weightsep"

# Mutants that run at once, each pytest at one BLAS thread.
WORKERS = 2

# A mutant whose tests run longer than this is counted as killed.
TIMEOUT_S = 600

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult}

ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def find_function(tree, qualname):
    """The function node at dotted ``qualname`` in the module ``tree``."""
    scope = tree
    for name in qualname.split("."):
        for node in scope.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name == name):
                scope = node
                break
        else:
            raise SystemExit(f"no {qualname} in the module")
    if isinstance(scope, ast.ClassDef):
        raise SystemExit(f"{qualname} is a class, not a function")
    return scope


def mutations(node):
    """The mutants of the one node ``node``, each as its replacement."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = copy.deepcopy(node)
                new.ops[i] = SWAPS[type(op)]()
                out.append(new)
    elif (isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign))
          and type(node.op) in SWAPS):
        new = copy.deepcopy(node)
        new.op = SWAPS[type(node.op)]()
        out.append(new)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        out.append(copy.deepcopy(node.operand))
    elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
          and not isinstance(node.value, bool)):
        out += [ast.Constant(node.value + 1), ast.Constant(node.value - 1)]
    return out


class _Replace(ast.NodeTransformer):
    """Put ``replacement`` where the node ``target`` stood."""

    def __init__(self, target, replacement):
        self.target, self.replacement = target, replacement

    def visit(self, node):
        if node is self.target:
            return self.replacement
        return self.generic_visit(node)


def mutants(source, qualname):
    """``(module text, description)`` for each mutant of ``qualname`` in the
    module ``source``, in a fixed order, after the unmutated rewrite."""
    tree = ast.parse(source)
    func = find_function(tree, qualname)
    first = min([func.lineno] + [d.lineno for d in func.decorator_list])
    lines = source.splitlines(keepends=True)

    def module_with(new_func):
        body = textwrap.indent(ast.unparse(new_func), " " * func.col_offset)
        return "".join(lines[:first - 1]) + body + "\n" + "".join(
            lines[func.end_lineno:])

    out = [(module_with(func), "unmutated")]
    sites = [(index, node) for index, node in enumerate(ast.walk(func))
             if mutations(node)]
    sites.sort(key=lambda site: (site[1].lineno, site[1].col_offset))
    for index, node in sites:
        for new in mutations(node):
            # The node's twin in a copy: ast.walk visits both in one order.
            mutated = copy.deepcopy(func)
            twin = list(ast.walk(mutated))[index]
            out.append((module_with(_Replace(twin, new).visit(mutated)),
                        f"{node.lineno}: {ast.unparse(node)} -> "
                        f"{ast.unparse(new)}"))
    return out


def run_mutant(module_path, text, pytest_args):
    """Run ``pytest -x -q`` on ``pytest_args`` in a temporary copy of the
    checkout whose ``module_path`` holds ``text``; True when it passes."""
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work"))
        (checkout / module_path.relative_to(ROOT)).write_text(text)
        env = {**os.environ, **ONE_THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(checkout / "src")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *pytest_args],
                cwd=checkout, env=env, capture_output=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return proc.returncode == 0


def main():
    if len(sys.argv) < 2 or "." not in sys.argv[1]:
        raise SystemExit(__doc__)
    module, _, qualname = sys.argv[1].partition(".")
    pytest_args = sys.argv[2:]
    module_path = PACKAGE / f"{module}.py"
    found = mutants(module_path.read_text(), qualname)
    (unmutated, _), rest = found[0], found[1:]
    if not run_mutant(module_path, unmutated, pytest_args):
        print(f"{sys.argv[1]} written back unmutated fails the selection; "
              "nothing scored")
        return 2
    with ThreadPoolExecutor(WORKERS) as pool:
        passed = pool.map(lambda m: run_mutant(module_path, m[0], pytest_args),
                          rest)
        survivors = 0
        for (_, what), ok in zip(rest, passed):
            survivors += ok
            print(f"{'survived' if ok else 'killed  '} {module}.py:{what}",
                  flush=True)
    killed = len(rest) - survivors
    print(f"score: {killed} of {len(rest)} mutants of {sys.argv[1]} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
