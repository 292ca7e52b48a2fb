import ast
import re
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


def test_no_process_global_gc_settings():
    # a package must not buy speed by changing the collector for its caller
    banned = {"disable", "freeze", "set_threshold"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
                and node.attr in banned
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "gc"
                and banned & {a.name for a in node.names}
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"gc settings changed in src: {found}"


def test_library_map_names_every_module():
    # like test_registry_matches_docs: a module must not go undocumented,
    # nor a deleted one stay documented
    readme = SRC.parents[1] / "README.md"
    section = re.search(r"## Library map\n(.*?)(?:\n## |\Z)", readme.read_text(), re.S)
    assert section, "README must have a library map"
    documented = set(re.findall(r"^\| `([a-z0-9_]+)` ", section.group(1), re.M))
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__", "errors"}
    assert documented == modules


def test_no_unused_module_imports():
    # a module-level import that its module never reads is a leftover of
    # deleted code; __init__ imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]
    assert not found, f"unused imports in src: {found}"


def _spec_text(node):
    """The literal characters of a format spec: a string constant, or the
    constant parts of an f-string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_spec_text(part) for part in node.values)
    return ""


def test_binary_format_only_in_cube():
    # the cell-order codec (`cube.mask_text` and friends) is the one place
    # that writes a mask's binary digits, by format(x, "...b") or f"{x:b}"
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cube":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "format":
                spec = _spec_text(node.args[1]) if len(node.args) > 1 else ""
            elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
                spec = _spec_text(node.format_spec)
            else:
                continue
            if spec.endswith("b"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"binary format outside cube: {found}"


def test_every_error_class_is_raised():
    # a class no code raises tells no caller anything; the base is only caught
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes - raised == {"TritradeError"}
