"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules
imports none of them: it hands its (submodule → names) table to
:func:`lazy_exports` and binds the returned ``__getattr__`` and
``__dir__``. A name's submodule is imported on the name's first
lookup, so a process loads only the modules its command touches, while
``pkg.Name``, ``from pkg import Name``, ``from pkg import *`` (through
the package's ``__all__``) and ``dir(pkg)`` behave as with eager
imports.

Nothing is cached in the package namespace: each lookup reads the
attribute of the submodule, so whatever rebinds it there (a test's
monkeypatch, a benchmark's wrapper) is seen through the package too,
and undone with it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

#: A package's lazy exports: submodule → the names it provides.
Exports = Mapping[str, tuple[str, ...]]


def resolve(package: str, exports: Exports, name: str):
    """The exported ``name`` of ``package``, read from its submodule."""
    for module, names in exports.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def lazy_exports(package: str, exports: Exports,
                 ) -> tuple[Callable[[str], object], Callable[[], list]]:
    """``(__getattr__, __dir__)`` for ``package``, which exports the
    names of ``exports``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        return resolve(package, exports, name)

    def __dir__() -> list[str]:
        return sorted({*namespace, *(name for names in exports.values()
                                     for name in names)})

    return __getattr__, __dir__
