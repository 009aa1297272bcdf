"""Shared fixtures."""

from __future__ import annotations

import itertools
import sys
import warnings

import pytest

# Hypothesis imports its patch writer the first time a ``@given`` test
# fails, and that import reaches libcst, which raises a DeprecationWarning
# from mypy_extensions.  Under ``error::DeprecationWarning`` that aborts the
# session inside the report hook, so it is imported once here with that
# warning ignored for the import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rebind(monkeypatch):
    """``rebind(original, replacement)`` points every module-level name in
    homhom that is bound to ``original`` at ``replacement`` for the test, so
    that a call through any import of it reaches the replacement."""

    def rebind(original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name == "homhom" or name.startswith("homhom."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)

    return rebind


@pytest.fixture(scope="session")
def shrikhande():
    """The Shrikhande graph: the Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1)
    and +-(1,1).  It is strongly regular with the parameters of rook(4),
    (16, 6, 2, 2), so every degree filter takes it for rook(4)."""
    from homhom.graphs import from_edges

    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return from_edges(
        16,
        [
            (4 * a + b, 4 * c + d)
            for a, b, c, d in itertools.product(range(4), repeat=4)
            if 4 * a + b < 4 * c + d and ((c - a) % 4, (d - b) % 4) in steps
        ],
    )
