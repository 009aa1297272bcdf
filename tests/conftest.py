"""Shared fixtures."""

from __future__ import annotations

import sys

import pytest


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
