"""Interned string pools for columnar event storage.

An event-log holds millions of events but only a handful of distinct
syscall names and file paths. Storing each occurrence as a Python string
wastes memory and makes vectorized comparisons impossible, so the
columnar :class:`~repro.core.frame.EventFrame` stores *codes* (int32
indices) into a :class:`StringPool`, the standard dictionary-encoding
trick used by columnar engines. Substring filters — the paper's
``apply_fp_filter('/usr/lib')`` — then scan only the pool (m distinct
strings) instead of the column (n events), turning O(n · |s|) into
O(m · |s|) + one vectorized ``isin`` over codes.

The ablation benchmark ``bench_ablation_interning`` quantifies this
against a plain object-array representation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


class StringPool:
    """An append-only bijection ``str <-> int32 code``.

    Codes are dense, starting at 0, in first-seen order. The pool never
    forgets a string; event frames built from the same pool therefore
    share code semantics and can be concatenated without re-encoding.
    """

    __slots__ = ("_strings", "_codes")

    def __init__(self, strings: Iterable[str] = ()) -> None:
        self._strings: list[str] = []
        self._codes: dict[str, int] = {}
        for s in strings:
            self.intern(s)

    def intern(self, string: str) -> int:
        """Return the code for ``string``, adding it if unseen."""
        code = self._codes.get(string)
        if code is None:
            code = len(self._strings)
            self._codes[string] = code
            self._strings.append(string)
        return code

    def intern_all(self, strings: Iterable[str]) -> np.ndarray:
        """Vector form of :meth:`intern`; returns an int32 code array."""
        return np.fromiter(
            (self.intern(s) for s in strings), dtype=np.int32)

    def decode(self, code: int) -> str:
        """The string for a code; raises :class:`IndexError` if unknown."""
        if code < 0:
            raise IndexError(f"negative string code {code}")
        return self._strings[code]

    def lookup(self, string: str) -> int | None:
        """Code for ``string`` or ``None`` — never interns."""
        return self._codes.get(string)

    def codes_matching(self, predicate) -> np.ndarray:
        """Codes of all pooled strings satisfying ``predicate(str)``.

        This is the heart of pool-level filtering: evaluate the (slow,
        Python-level) predicate once per *distinct* string, then let the
        caller do a vectorized ``isin`` over the code column.
        """
        return np.fromiter(
            (code for code, s in enumerate(self._strings) if predicate(s)),
            dtype=np.int32,
        )

    def codes_containing(self, substring: str) -> np.ndarray:
        """Codes of pooled strings that contain ``substring``."""
        return self.codes_matching(lambda s: substring in s)

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, string: object) -> bool:
        return string in self._codes

    def __iter__(self) -> Iterator[str]:
        return iter(self._strings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringPool):
            return NotImplemented
        return self._strings == other._strings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StringPool({len(self._strings)} strings)"
