"""The package's public surface is what its callers use.

Every public module-level function or class of `src/seedwing`, and every
public method of such a class, must be referenced somewhere in `src/`,
`scripts/` or `perfbench/` outside its own definition. Tests do not count as
callers: a name that only tests reach belongs in a test helper. A reference
is a `Name`, an `Attribute`, an import `alias`, or an identifier inside a
string constant (perfbench's tracer names the functions it wraps in strings,
such as "reach.point_jacobian"); docstrings and other bare string statements
do not count.

A reference is matched by name alone, so the check cannot tell apart defs
that share a name: a method with no caller passes when another class's
method of the same name has one (`Spec.to_json` is covered by any
`.to_json` call in the package).
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seedwing"
CALLER_DIRS = ("src", "scripts", "perfbench")

# public names that no caller reaches, each kept for the reason given
ALLOWED = {
    "mean_glide_slope": "acceptance criterion 2 computes its reported glide slope with it",
    "rmse": "acceptance criterion 3 computes its reported held-out RMSE with it",
    "empirical_lipschitz": "acceptance criterion 9 computes its reported quotient with it",
    "zono_contains_point": "ROADMAP item 14's reach containment oracle needs it",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_surface():
    """(module, qualified name, definition node) of every public def."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item


def _references(tree, skip):
    """Names referenced in tree, outside the subtree rooted at skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                found.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(_IDENT.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


@functools.cache
def _callers():
    """(path, tree, names it references) of every caller file."""
    out = []
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            out.append((path, tree, _references(tree, None)))
    return out


def _has_caller(path, node) -> bool:
    """Whether node's name is referenced in src/, scripts/ or perfbench/,
    outside node's own definition (a recursive call does not count)."""
    return any(node.name in (_references(tree, node) if caller == path else names)
               for caller, tree, names in _callers())


def test_every_public_name_has_a_caller():
    unused = [f"{path.name}: {qualname}" for path, qualname, node in _public_surface()
              if node.name not in ALLOWED and not _has_caller(path, node)]
    assert not unused, \
        "public names with no caller in src/, scripts/ or perfbench/: " + ", ".join(unused)


def test_allowlisted_names_are_defined_and_have_no_caller():
    # an allowlisted name that gains a caller, or is deleted, leaves the list
    defined = {node.name: (path, node) for path, _, node in _public_surface()}
    for name in ALLOWED:
        assert name in defined, f"{name} is allowlisted but not defined"
        assert not _has_caller(*defined[name]), f"{name} has a caller; drop it from ALLOWED"
