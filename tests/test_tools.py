"""The mutant generator of ``tools/mutants.py``: which mutants one function
yields, and that each is a whole module that parses."""

import ast
import importlib.util

import pytest

from tests.support import ROOT

SOURCE = '''
import os


class K:
    def f(self, a, b):
        """Doc."""
        if not a and b is None:
            return a < 2
        a -= b * 2
        a /= b @ a
        return a + b == b


def g():
    return 1
'''


def load_mutants():
    path = ROOT / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_changes_one_operator_of_the_named_function():
    found = load_mutants().mutants(SOURCE, "K.f")
    assert [what for _, what in found] == [
        "unmutated",
        "8: not a and b is None -> not a or b is None",
        "8: not a -> a",
        "8: b is None -> b is not None",
        "9: a < 2 -> a <= 2",
        "9: 2 -> 3",
        "9: 2 -> 1",
        "10: a -= b * 2 -> a += b * 2",
        "10: b * 2 -> b / 2",
        "10: 2 -> 3",
        "10: 2 -> 1",
        "11: a /= b @ a -> a *= b @ a",
        "12: a + b == b -> a + b != b",
        "12: a + b -> a - b",
    ]
    head = SOURCE.split("    def f")[0]
    tail = SOURCE.split("return a + b == b\n")[1]
    for text, _ in found:
        ast.parse(text)
        assert text.startswith(head) and text.endswith(tail)


def test_only_a_function_is_mutated():
    mutants = load_mutants()
    for qualname in ("K", "h", "K.h"):
        with pytest.raises(SystemExit):
            mutants.mutants(SOURCE, qualname)
