import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tritrade"


def test_no_assert_statements():
    # python -O strips assert, so invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"
