"""The public deciders take the graphs and the query, nothing else.

Each of the six classes has one definition, so a decider needs no switch;
``HOMHOM_BUDGET`` is the one budget setting.  The engine is fixed by the
query and the canonical form by the graph alone.  Every function, class,
module-level name and non-dunder method of the library modules has a reader
in ``src`` besides the package's exports, every name the package exports is
read somewhere, and every defaulted parameter or dataclass field is passed
by some call in ``src``.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import homhom
from homhom import graphs, oracle, recognizers

POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD
KEYWORD = inspect.Parameter.KEYWORD_ONLY
EMPTY = inspect.Parameter.empty


PARAMETERS = {
    oracle.extension_morphic: ["g1", "g2", "query"],
    oracle.is_class_member: ["g", "query"],
    oracle.extension_symmetric: ["g1", "g2", "query"],
    oracle.query_for_code: ["code"],
    recognizers.classify: ["g"],
    graphs.canonical_form: ["g"],
    graphs.induced_cycle_lengths: ["g"],
}


@pytest.mark.parametrize("fn", list(PARAMETERS), ids=lambda fn: fn.__name__)
def test_decider_parameters(fn):
    got = []
    for p in inspect.signature(fn).parameters.values():
        assert p.kind in (POSITIONAL, KEYWORD), (fn, p)
        star = "*" if p.kind is KEYWORD else ""
        default = "" if p.default is EMPTY else f"={p.default!r}"
        got.append(f"{star}{p.name}{default}")
    assert got == PARAMETERS[fn]


def test_no_module_wide_option_defaults():
    # the one-point engine's state cap is a constant, not a parameter, and
    # the canonical form has no vertex cap
    assert not hasattr(oracle, "DEFAULT_STATE_LIMIT")
    assert not hasattr(graphs, "DEFAULT_CANONICAL_BOUND")


# -- every library definition has a caller ------------------------------------

LIBRARY_MODULES = ("graphs", "morphisms", "families", "oracle", "recognizers")

# definitions that nothing in ``src`` reads, each kept for a reader outside it
CALLERLESS_ALLOWED = {
    # traced by name by the benchmark, and the tests' reference searches
    "graphs.induced_cycle_lengths",
    "morphisms.enumerate_morphisms",
    # the witness check of perfbench/check.py
    "oracle.validate_witness",
    # perfbench/workloads.py builds its inputs with these two
    "graphs.to_edge_list_text",
    "graphs.disjoint_union",
    # the tests' reference for the multipartite recognizer
    "graphs.complement",
}


def _names_used(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, as loaded bare names or attributes; an
    assignment or an import is not a read."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _names_defined(node: ast.stmt) -> set[str]:
    """Names a module-level statement defines: a function or class, or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}


def test_every_library_definition_has_a_caller():
    # found by walking the syntax trees, so that a docstring saying
    # "distance-hereditary" is no reference to a function ``distance``; a
    # statement's reads of its own names, and the package's exports, are
    # no calls
    src = Path(homhom.__file__).parent
    defined: list[tuple[str, str]] = []
    uses: list[tuple[str, set[str], set[str]]] = []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = _names_defined(node)
            if module in LIBRARY_MODULES:
                defined += [(module, name) for name in owners]
            uses.append((module, owners, _names_used(node)))
    callerless = {
        f"{module}.{name}"
        for module, name in defined
        if not any(name in used for m, owners, used in uses if not (m == module and name in owners))
    }
    assert callerless == CALLERLESS_ALLOWED


# methods and properties of library classes that nothing in ``src`` reads,
# each kept for a reader outside it
CALLERLESS_METHODS_ALLOWED = {
    # perfbench/tracer.py names a traced call's class by it
    "oracle.ClassQuery.code",
    # perfbench/make_reference.py reads the verdicts through it
    "recognizers.ClassReport.verdict",
}


def test_every_library_method_has_a_caller():
    # a method or property is read as an attribute; dunders are the
    # language's to call, and a method's reads of its own name are no calls.
    # An attribute that is also a field of another library record is read as
    # that field unless it is called, so ``entry.verdict`` does not call
    # ``ClassReport.verdict``
    src = Path(homhom.__file__).parent
    methods: list[tuple[str, str, ast.FunctionDef]] = []
    fields: dict[str, set[str]] = {}  # field name -> the records that declare it
    uses: list[tuple[ast.stmt, set[str], set[str]]] = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            parts = node.body if isinstance(node, ast.ClassDef) else [node]
            for part in parts:
                attrs = {a.attr for a in ast.walk(part) if isinstance(a, ast.Attribute)}
                called = {
                    c.func.attr
                    for c in ast.walk(part)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                }
                uses.append((part, attrs, called))
                if path.stem not in LIBRARY_MODULES or not isinstance(node, ast.ClassDef):
                    continue
                owner = f"{path.stem}.{node.name}"
                if _is_record(node) and isinstance(part, ast.AnnAssign):
                    fields.setdefault(_name(part.target), set()).add(owner)
                if isinstance(part, ast.FunctionDef) and not (
                    part.name.startswith("__") and part.name.endswith("__")
                ):
                    methods.append((owner, part.name, part))

    def reads(owner: str, name: str, attrs: set[str], called: set[str]) -> bool:
        return name in called or (name in attrs and not fields.get(name, set()) - {owner})

    callerless = {
        f"{owner}.{name}"
        for owner, name, method in methods
        if not any(reads(owner, name, a, c) for part, a, c in uses if part is not method)
    }
    assert callerless == CALLERLESS_METHODS_ALLOWED


def test_every_export_is_read():
    # an export is read when ``src`` outside ``__init__``, the tests or the
    # benchmark load it by name or as an attribute; importing it, or
    # assigning to it, is no read
    src = Path(homhom.__file__).parent
    repo = Path(__file__).resolve().parent.parent
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    paths = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    paths += [*(repo / "tests").rglob("*.py"), *(repo / "perfbench").rglob("*.py")]
    read = set().union(
        *(_names_used(ast.parse(p.read_text(encoding="utf-8"))) for p in paths)
    )
    assert sorted(exported - read) == []


# -- every default is one some caller departs from ----------------------------

# defaulted parameters that no call in ``src`` passes, each kept for a caller
# outside it
UNPASSED_ALLOWED = {
    # the tests' reference stream of the source maps on one domain
    "morphisms.enumerate_morphisms.domain_mask",
}


def _name(node: ast.AST) -> str | None:
    """The name ``node`` reads, bare or as an attribute."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_record(node: ast.ClassDef) -> bool:
    """Whether ``node`` is a dataclass or a ``NamedTuple``, whose annotated
    class attributes are its constructor's parameters."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(_name(m) in ("dataclass", "NamedTuple") for m in marks + node.bases)


def _defaulted(node: ast.AST) -> list[tuple[str, str, int | None]]:
    """The defaulted parameters of a function or record class: (callee
    name, parameter, its position in a call, None when keyword-only)."""
    if isinstance(node, ast.ClassDef):
        fields = [
            (part.target.id, part.value is not None)
            for part in node.body
            if isinstance(part, ast.AnnAssign) and isinstance(part.target, ast.Name)
        ]
        return [(node.name, name, i) for i, (name, default) in enumerate(fields) if default]
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
    out = [
        (node.name, name, i - skip)
        for i, name in enumerate(positional)
        if i >= len(positional) - len(args.defaults)
    ]
    out += [
        (node.name, a.arg, None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    ]
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at ``position``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and any(
        i == position or isinstance(arg, ast.Starred) for i, arg in enumerate(call.args)
    )


def test_every_defaulted_parameter_is_passed():
    # a default that every caller keeps is an option nobody takes; a call
    # inside the definition itself, a recursion, does not count, and a call
    # is matched to its callee by name, bare or as an attribute
    src = Path(homhom.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    calls = [c for tree in trees.values() for c in ast.walk(tree) if isinstance(c, ast.Call)]
    unpassed = set()
    for module in LIBRARY_MODULES:
        for parent in ast.walk(trees[module]):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef) and _is_record(node):
                    owner = module
                elif isinstance(node, ast.FunctionDef):
                    in_class = isinstance(parent, ast.ClassDef)
                    owner = f"{module}.{parent.name}" if in_class else module
                else:
                    continue
                inside = {id(sub) for sub in ast.walk(node)}
                for callee, name, position in _defaulted(node):
                    if not any(
                        _name(call.func) == callee
                        and id(call) not in inside
                        and _passes(call, name, position)
                        for call in calls
                    ):
                        unpassed.add(f"{owner}.{callee}.{name}")
    assert unpassed == UNPASSED_ALLOWED
