"""Every durable write in ``src/repro`` goes through ``repro.durable``.

Transactions, atomic renames, fsyncs and SQLite connections must have
exactly one implementation, so crash-state enumeration can hook every
durable write at one place.  Docstrings and comments may name the
primitives; code outside ``repro/durable.py`` may not use them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SEAM = SRC / "durable.py"
PRIMITIVES = ("BEGIN IMMEDIATE", "os.replace(", "tempfile.mkstemp(",
              "os.fsync(", "sqlite3.connect(")


def _code(path: Path) -> str:
    """The module's source without docstrings or comments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body[0] = ast.Pass()
    return ast.unparse(tree)


def test_sources_are_found():
    assert SEAM.exists()
    assert len(list(SRC.rglob("*.py"))) > 20


def test_the_seam_holds_every_primitive():
    code = _code(SEAM)
    assert [p for p in PRIMITIVES if p not in code] == []


def test_no_durable_primitive_outside_the_seam():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path != SEAM:
            found = [p for p in PRIMITIVES if p in _code(path)]
            if found:
                offenders[str(path.relative_to(SRC))] = found
    assert offenders == {}
