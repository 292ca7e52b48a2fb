import ast
import re
from collections import Counter
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


def _is_empty_container(node):
    """An empty {} or [] literal, or a dict(), list() or set() call with
    no arguments."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"dict", "list", "set"}
        and not node.args
        and not node.keywords
    )


def test_no_module_level_empty_containers():
    # a container that starts empty at module level is a memo that lives
    # as long as the process and grows with every key it meets; a cache
    # goes through functools.lru_cache on bounded keys instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
                if any(map(_is_empty_container, values)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level empty containers in src: {found}"


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


# Public names that no code in src/ reads, each with the reason it stays.
# Anything else without a reader in src/ is deleted, or moved to
# tests/helpers.py when only the tests use it.
_KEEP = {
    # paper objects, pinned by the tests
    "construct.embed_in_alphabet": "paper object: a bitrade re-read over a larger alphabet",
    "construct.grid_cycle_bitrade": "paper object: the 2k-cycle bitrade of Q_k^2",
    "construct.rm_embed": "paper object: the k = 4 degree embedding into boolean functions",
    "cube.Isometry.compose": "paper object: the product of the isometry group",
    "funcspace.BoolFn.retract": "paper object: the retract of a function onto a hyperface",
    "funcspace.TernFn.retract": "paper object: the retract of a function onto a hyperface",
    "trade.TradeSet.retract": "paper object: the retract of a set onto a hyperface",
    "funcspace.TernFn.apply_isometry": "paper object: the isometry action behind the classes",
    "trade.TradeSet.apply_isometry": "paper object: the isometry action behind the classes",
    "funcspace.TernFn.support": "paper object: the support of a signed function",
    "funcspace.BoolFn.weight": "paper object: the weight that rm_embed preserves",
    "funcspace.degree": "paper object: the algebraic degree, bounded on rm_embed images",
    "funcspace.gf2_basis_fn": "paper object: the GF(2) basis of the line-sum-zero space",
    "monomial.is_decomposable": "paper object: a unitrade that is a product",
    "monomial.jointly_consistent": "paper object: the sign relations of a monomial set",
    "monomial.normalize": "paper object: a monomial set with its distance-1 pairs collapsed",
    "monomial.rank_branch_and_bound": "paper object: the rank, cross-checking the rank table",
    "monomial.signed_cube_fn": "paper object: the signed monomial cube b_v",
    "monomial.triple_cardinality": "paper object: the size of a rank-3 triple from its profile",
    "testsets.boolean_cube_testset": "paper object: Q_2^m, a testing set for all unitrades",
    "testsets.family_bound": "paper object: the |S|^(|T|^l) bound on a hereditary family",
    "testsets.line_system_rank": "paper object: the rank 3^m - 2^m of the line system",
    "testsets.product_testset": "paper object: the Cartesian power of a testing set",
    "testsets.restriction": "paper object: the restriction of a set to a testing set",
    "trade.connectivity_and_structure": "paper object: intersection, containment, connectivity",
    "trade.half_cardinality_stats": "paper object: the published half-cardinality statistics",
    "trade.half_cardinality_stats_from_spectrum": "paper object: the same, from a spectrum",
    # read by bench/
    "cube.Line": "read by bench/ through `lines` (the trade-queries set-up)",
    "cube.lines": "read by bench/ (trade-queries set-up); in src/ only lines_through reads it",
    "cube.lines_through": "read by bench/ (the trade-queries set-up)",
    "monomial.cardinality_formula": "read by bench/ (trade-queries); the subset formula",
    "monomial.f_from_monomials": "read by bench/ (the trade-queries set-up)",
    "monomial.triple_is_bitrade": "read by bench/ (trade-queries); the triple classifier",
    "symmetry.canonical_form": "read by bench/ (classify-mix)",
    "symmetry.equivalent": "read by bench/ (classify-mix)",
    "symmetry.orbit_values": "read by bench/ (classify-mix)",
    # reserved for the Reed-Muller reading of the mod-3 theorem (ROADMAP D13)
    "funcspace.gf3_basis_fn": "reserved for D13: the centered GF(3) monomials s_alpha",
    "funcspace.inner3": "reserved for D13: the residue inner3(f, s_(1..1))",
}


def _public_definitions(tree, module):
    """(qualified name, node) of each public top-level function or class of
    a module and of each public method of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _name_reads(node):
    """The bare names a subtree reads."""
    return [sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)]


def _attribute_reads(node):
    """The attribute names a subtree reads."""
    return [sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]


def _reads(node):
    """The names a subtree reads: bare names and attribute names (an import
    binds a name but does not read it, so a re-export in __init__ is not a
    reader)."""
    return _name_reads(node) + _attribute_reads(node)


def test_every_public_name_has_a_reader_in_src():
    # a public name nothing in the package reads is dead code or a test
    # oracle, unless the keep-list above says why it stays.  A method counts
    # as read only through an attribute of its name.  A top-level name
    # counts as an attribute anywhere, and as a bare name only in its own
    # module or in a module that imports it by name, so a local variable or
    # a stdlib module of the same name elsewhere does not hide it.  A
    # definition's reads of its own name (recursion) do not count
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    attributes = Counter(name for tree in trees.values() for name in _attribute_reads(tree))
    names = {module: Counter(_name_reads(tree)) for module, tree in trees.items()}
    # (source module, name) -> the modules that bind it by a from-import, and as what
    bound: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                for alias in node.names:
                    bound.setdefault((source, alias.name), []).append(
                        (module, alias.asname or alias.name)
                    )
    unread = []
    defined = set()
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree, module):
            defined.add(qualname)
            own = _attribute_reads(node).count(node.name)
            reads = attributes[node.name]
            if qualname.count(".") == 1:  # top-level: bare names count too
                own += _name_reads(node).count(node.name)
                reads += names[module][node.name] + sum(
                    names[reader][alias] for reader, alias in bound.get((module, node.name), ())
                )
            if reads == own and qualname not in _KEEP:
                unread.append(qualname)
    assert not unread, f"no reader in src/ and no keep-list reason: {unread}"
    assert set(_KEEP) <= defined, f"keep-list names not defined: {sorted(set(_KEEP) - defined)}"


def test_word_walk_lines_have_no_reader_in_src():
    # the package answers line questions through cube.line_planes and
    # cube.digit_masks; the word walk stays in cube for bench/ and the test
    # oracles, and nothing else in src/ reads it
    walk = {"Line", "lines", "lines_through"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if path.stem == "cube" and getattr(node, "name", None) in walk:
                continue
            imported = node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ()
            names = [*_reads(node), *(alias.name for alias in imported)]
            found += [f"{path.name}:{name}" for name in names if name in walk]
    assert not found, f"the word walk is read in src: {found}"
