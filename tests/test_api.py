"""The public deciders take the graphs, the query and at most a budget.

Each of the six classes has one definition, so a decider needs no switch
beyond ``budget``, the library face of ``HOMHOM_BUDGET``.  The engine is
fixed by the query and the canonical form by the graph alone.  And every
function, class and module-level name of the library modules has a reader
in ``src`` besides the package's exports, and every name the package
exports is read somewhere.
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
    oracle.extension_morphic: ["g1", "g2", "query", "*budget=None"],
    oracle.is_class_member: ["g", "query", "*budget=None"],
    oracle.extension_symmetric: ["g1", "g2", "query", "*budget=None"],
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
