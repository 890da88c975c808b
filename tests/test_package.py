"""The package's public surface: what it exports, and that each public
function, class and method is referenced by name in the package or a demo.

Code whose only callers are tests belongs in tests/reference.py, not in
the package.
"""

import ast
from collections import Counter
from pathlib import Path

import strongeq

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "strongeq"
DEMOS = ROOT / "demos"

EXPORTED = [
    "DiscoveryReport",
    "HTPair",
    "Mismatch",
    "NotCanonicalError",
    "ParseError",
    "Program",
    "Rule",
    "SEVerdict",
    "SimplifyStep",
    "SimplifyTrace",
    "StrongeqError",
    "Symbols",
    "TooManyAtomsError",
    "TupleShape",
    "answer_sets",
    "cond_0_1_0",
    "cond_0_1_1",
    "cond_0_2_1",
    "cond_0_2_2",
    "cond_1_1_0",
    "cond_2_1_0",
    "countermodel_json",
    "discover_positive_tuples",
    "enumerate_rules",
    "enumerate_tuples",
    "exhaustive_atom_bound",
    "format_program",
    "format_rule",
    "iso_canonical_form",
    "language_symbols",
    "normalize_rule",
    "parse_program",
    "parse_rule",
    "reduct",
    "s_implies",
    "simplify",
    "strongly_equivalent",
    "subsume_witness",
    "test_conjecture",
    "verify_simplification",
]

# public names with no caller in the package or a demo, and why they stay
UNCALLED = {
    "enumerate_tuples": "perfbench/tracing.py reads the iso_canonical_form it calls",
    "exhaustive_atom_bound": "README states the paper's atom bound through it",
}


def test_exports_are_pinned():
    assert strongeq.__all__ == EXPORTED


def _names(node: ast.AST) -> Counter:
    """How often each name is read in the tree under node, as a bare name
    or as an attribute.  Names only, not bindings: a method `m` counts as
    referenced by any `x.m` or `m` anywhere, so a dead method that shares
    its name with a live attribute or function is not caught."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _public_definitions(tree: ast.Module):
    """Each public top-level function and class, and each public method of
    a top-level class, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(DEMOS.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _public_definitions(tree):
            name = qualname.rpartition(".")[2]
            if everywhere[name] - _names(node)[name] <= 0:
                uncalled.append(qualname)
    assert sorted(uncalled) == sorted(UNCALLED)


def _module_imports(tree: ast.Module):
    """Each name a module-level import binds, with its line; `import a.b`
    binds `a`.  `from __future__` binds no name the module reads."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_import_is_read_in_its_module():
    # no linter is assumed to be installed, so this is the unused-import check
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        if path.name == "__init__.py":
            read |= set(strongeq.__all__)  # the re-exports
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _module_imports(tree) if name not in read]
    assert unused == []
