"""Guarantees about the library source itself."""

import ast
from pathlib import Path

import configcalc


def test_library_has_no_assert_statements():
  # ``python -O`` strips asserts, so no result may be guarded by one.
  files = sorted(Path(configcalc.__file__).parent.glob("*.py"))
  assert files
  found = [f"{path.name}:{node.lineno}"
           for path in files
           for node in ast.walk(ast.parse(path.read_text(), str(path)))
           if isinstance(node, ast.Assert)]
  assert not found, found
