"""The package's public surface is what its callers use.

Every public module-level function or class of `src/seedwing`, and every
public method of such a class, must be referenced somewhere in `src/`,
`scripts/` or `perfbench/` outside its own definition. Tests do not count as
callers: a name that only tests reach belongs in a test helper. A reference
is a `Name`, an `Attribute`, an import `alias`, or an identifier inside a
string constant (perfbench's tracer names the functions it wraps in strings,
such as "reach.point_jacobian"); docstrings and other bare string statements
do not count.

Every defaulted parameter of such a function or method must also be passed
by some call in those directories, outside its own definition: by keyword,
positionally at its index, or through `functools.partial(f, ...)`. A
parameter only tests pass is a test hook; a test patches a module name
instead (such as `reach._derivative_core`). A `*` or `**` argument may carry
any parameter it reaches, so it counts as passing all of them. Dataclass
fields are not parameters here, and the names in ALLOWED are skipped.

References and calls are matched by name alone, so the checks cannot tell
apart defs that share a name: a method with no caller passes when another
class's method of the same name has one (`Spec.to_json` is covered by any
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


@functools.cache
def _trees():
    """path -> syntax tree of every caller file; the package's own modules
    are among them, so a def's node can be skipped in its own file."""
    return {path: ast.parse(path.read_text(), filename=str(path))
            for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))}


def _public_surface():
    """(module, qualified name, definition node) of every public def."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _trees()[path].body:
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
    return [(path, tree, _references(tree, None)) for path, tree in _trees().items()]


def _has_caller(path, node) -> bool:
    """Whether node's name is referenced in src/, scripts/ or perfbench/,
    outside node's own definition (a recursive call does not count)."""
    return any(node.name in (_references(tree, node) if caller == path else names)
               for caller, tree, names in _callers())


def _callee(expr):
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


@functools.cache
def _calls():
    """callee name -> [(call node, positional argument nodes, keyword nodes)]
    of every call in the caller files, functools.partial(f, ...) read as a
    call of f."""
    out = {}
    for tree in _trees().values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee(node.func) == "partial" and node.args:
                name, args = _callee(node.args[0]), node.args[1:]
            else:
                name, args = _callee(node.func), node.args
            out.setdefault(name, []).append((node, args, node.keywords))
    return out


def _signature(node, method):
    """(positional parameters, keyword-only parameters, names of those with
    defaults) of a def; a method's self or cls is not a call's argument."""
    a = node.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    if method and not any(_callee(d) == "staticmethod" for d in node.decorator_list):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, [x.arg for x in a.kwonlyargs], defaulted


def _unpassed(node, method):
    """node's defaulted parameters that no call outside its own definition
    passes."""
    positional, kwonly, defaulted = _signature(node, method)
    inside = {id(n) for n in ast.walk(node)}
    passed = set()
    for call, args, keywords in _calls().get(node.name, ()):
        if id(call) in inside:
            continue
        for i, arg in enumerate(args):
            passed.update(positional[i:] if isinstance(arg, ast.Starred)
                          else positional[i:i + 1])
        for kw in keywords:
            passed.update(positional + kwonly if kw.arg is None else [kw.arg])
    return [p for p in defaulted if p not in passed]


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


def test_every_defaulted_parameter_is_passed():
    unpassed = [f"{path.name}: {qualname}({p}=)"
                for path, qualname, node in _public_surface()
                if isinstance(node, ast.FunctionDef) and node.name not in ALLOWED
                for p in _unpassed(node, "." in qualname)]
    assert not unpassed, \
        "defaulted parameters that no call in src/, scripts/ or perfbench/ passes: " \
        + ", ".join(unpassed)
