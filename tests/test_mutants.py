"""The table of ``tests/mutants.py`` still names code and tests that exist.
``python tests/mutants.py`` runs the mutants themselves."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def defined_tests(path) -> set[str]:
    """The ids, after the file's, of the test functions and methods defined
    in the test file ``path``, without parameters."""
    ids = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            ids.add(node.name)
        elif isinstance(node, ast.ClassDef):
            ids.update(f"{node.name}::{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return ids


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_names_code_and_tests_that_exist(name):
    mutant = MUTANTS[name]
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        file, _, node = test.partition("::")
        assert node in defined_tests(ROOT / file), test
