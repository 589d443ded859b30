"""String interning pools (dictionary encoding for event columns)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util.strings import StringPool


class TestIntern:
    def test_codes_are_dense_first_seen_order(self):
        pool = StringPool()
        assert pool.intern("a") == 0
        assert pool.intern("b") == 1
        assert pool.intern("a") == 0
        assert len(pool) == 2

    def test_init_with_strings(self):
        pool = StringPool(["x", "y", "x"])
        assert len(pool) == 2
        assert pool.lookup("x") == 0

    def test_intern_all_vectorized(self):
        pool = StringPool()
        codes = pool.intern_all(["p", "q", "p", "r"])
        assert codes.dtype == np.int32
        assert codes.tolist() == [0, 1, 0, 2]

    def test_decode(self):
        pool = StringPool(["alpha", "beta"])
        assert pool.decode(1) == "beta"

    def test_decode_negative_rejected(self):
        with pytest.raises(IndexError):
            StringPool(["a"]).decode(-1)

    def test_decode_unknown_rejected(self):
        with pytest.raises(IndexError):
            StringPool(["a"]).decode(5)

    def test_lookup_never_interns(self):
        pool = StringPool()
        assert pool.lookup("ghost") is None
        assert len(pool) == 0

    def test_contains_and_iter(self):
        pool = StringPool(["m", "n"])
        assert "m" in pool
        assert "z" not in pool
        assert list(pool) == ["m", "n"]

    def test_equality(self):
        assert StringPool(["a", "b"]) == StringPool(["a", "b"])
        assert StringPool(["a", "b"]) != StringPool(["b", "a"])


class TestPoolLevelFiltering:
    def test_codes_containing(self):
        pool = StringPool(["/usr/lib/libc.so", "/etc/passwd",
                           "/usr/lib/libm.so"])
        codes = pool.codes_containing("/usr/lib")
        assert codes.tolist() == [0, 2]

    def test_codes_containing_no_match(self):
        pool = StringPool(["/etc/passwd"])
        assert pool.codes_containing("/scratch").tolist() == []

    def test_codes_matching_predicate(self):
        pool = StringPool(["a.txt", "b.log", "c.txt"])
        codes = pool.codes_matching(lambda s: s.endswith(".txt"))
        assert codes.tolist() == [0, 2]

    @given(st.lists(st.text(min_size=0, max_size=8), max_size=30),
           st.text(min_size=1, max_size=3))
    def test_pool_filter_equals_direct_filter(self, strings, substring):
        """Pool-level filtering must agree with per-element filtering."""
        pool = StringPool()
        codes = [pool.intern(s) for s in strings]
        matching = set(pool.codes_containing(substring).tolist())
        for code, s in zip(codes, strings):
            assert (code in matching) == (substring in s)

    @given(st.lists(st.text(max_size=6), max_size=50))
    def test_roundtrip_property(self, strings):
        pool = StringPool()
        codes = [pool.intern(s) for s in strings]
        assert [pool.decode(c) for c in codes] == strings
