"""Source-level checks over the whole tclq package."""

import ast
import glob
import os

import tclq


def test_no_assert_statements():
    """Invariants raise real exceptions, so they still hold under python -O."""
    sources = sorted(glob.glob(os.path.join(os.path.dirname(tclq.__file__), "*.py")))
    assert sources
    found = []
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
