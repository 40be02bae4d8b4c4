"""The identity suites' own oracles against their whole-array forms."""

from __future__ import annotations

from math import sqrt

import numpy as np
import pytest

from zagier_kit import series_engine as se
from zagier_kit import verify

from conftest import traced_peak


def _series_007_whole_array(x: float, m_terms: int) -> float:
    ms = np.arange(1, m_terms + 1, dtype=float)
    root = np.sqrt(ms * ms - x * x)
    total = se.chunked_fsum(1.0 / (np.sqrt(ms + root) * root))
    a = m_terms + 0.5
    tail = sqrt(2.0) / sqrt(a) + (5.0 * x * x / 8.0) * (2.0 / 3.0) / (sqrt(2.0) * a**1.5)
    return 0.5 / sqrt(x) - (x / sqrt(2.0)) * (total + tail)


@pytest.mark.parametrize("x", (0.3, 0.62))
@pytest.mark.parametrize("m_terms", (1, se._BLOCK - 1, se._BLOCK, se._BLOCK + 1, 10**6))
def test_series_007_blocks_match_one_whole_array(x, m_terms):
    got = verify._series_007_rhs(x, m_terms)
    assert repr(got) == repr(_series_007_whole_array(x, m_terms))


def test_series_007_memory_is_the_terms_and_one_block():
    # the million terms (8 MB) stay; the whole-array temporaries beside them go
    verify._series_007_rhs(0.3)
    _, peak = traced_peak(verify._series_007_rhs, 0.3)
    assert peak <= 10_000_000


def test_checks_store_python_floats_and_bools():
    # lemma34's dJ/dnu is a numpy float64; its check still stores a bool, which
    # JSON prints as true, not as the string "True"
    for name in ("lemma34", "telescope"):
        for c in verify.run_identity(name):
            assert type(c.passed) is bool, c
            assert {type(c.value), type(c.expected), type(c.abs_error)} == {float}, c
