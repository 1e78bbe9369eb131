"""The model is written down once: no copy of it outside its home modules."""

import ast
import re
from pathlib import Path

import solitonlab

HOMES = {"petviashvili.py", "grid.py"}


def _is_model_power(node):
    """xi**4 (the symbol) or a power ** alpha, ** (alpha + k) (|u|^p); squares pass."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    base, exponent = ast.unparse(node.left), ast.unparse(node.right)
    return (base, exponent) == ("xi", "4") or re.match(r"alpha\b", exponent) is not None


def test_model_lives_in_petviashvili_and_grid():
    package = Path(solitonlab.__file__).parent
    copies = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(package.glob("*.py")) if path.name not in HOMES
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_model_power(node)
    ]
    assert not copies, "model written outside its home:\n" + "\n".join(copies)
