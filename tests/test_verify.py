"""The identity suites' own oracles against independent references."""

from __future__ import annotations

from math import sqrt

import mpmath as mp
import numpy as np
import pytest

from zagier_kit import series_engine as se
from zagier_kit import verify

from conftest import polylog_trig_oracle


def _series_007_whole_array(x: float, n_terms: int) -> float:
    # the oracle's m < N terms and its four tail terms at N as one array, summed
    # by the engine's blocked extraction once the array outgrows math.fsum
    ms = np.arange(1.0, n_terms)
    roots = np.sqrt((ms - x) * (ms + x))
    n = float(n_terms)
    r = sqrt((n - x) * (n + x))
    g = 1.0 / sqrt(n + r)
    tail = [2.0 * g, g / (2.0 * r), g * (2.0 * n + r) / (24.0 * r**3),
            g * (r**3 + 4.0 * n * r * r - 4.0 * n * n * r - 8.0 * n**3) / (384.0 * r**7)]
    terms = np.concatenate([1.0 / (np.sqrt(ms + roots) * roots), tail])
    return 0.5 / sqrt(x) - (x / sqrt(2.0)) * se.chunked_fsum(terms)


@pytest.mark.parametrize("x", (0.3, 0.62))
@pytest.mark.parametrize("m_terms", (1, se._BLOCK - 1, se._BLOCK, se._BLOCK + 1, 10**6))
def test_series_007_blocks_match_one_whole_array(x, m_terms, monkeypatch):
    # at any N, across the engine's block size too, the oracle is the correctly
    # rounded sum of its whole term array; at N >= 2^15 - 1 it also stays on
    # Im Li_{1/2}(e^{2 pi i x}), where N = 1 leaves an Euler-Maclaurin remainder
    monkeypatch.setattr(verify, "SERIES_007_TERMS", m_terms)
    got = verify._series_007_rhs(x)
    assert repr(got) == repr(_series_007_whole_array(x, m_terms))
    if m_terms > 1:
        assert abs(got - polylog_trig_oracle(0.5, x)[1]) <= 1e-14


@pytest.mark.parametrize("x", (0.1, 0.3, 0.62, 0.9))
def test_series_007_rhs_vs_polylog(x):
    # S_{1/2}(x) = Im Li_{1/2}(e^{2 pi i x}); the closed tail leaves only rounding
    assert abs(verify._series_007_rhs(x) - polylog_trig_oracle(0.5, x)[1]) <= 1e-14


@pytest.mark.parametrize("x", (0.1, 0.3, 0.62, 0.9))
def test_series_007_remainder_bound(x, monkeypatch):
    # the docstring's Euler-Maclaurin remainder bound |f^(5)(N)|/15120 is below
    # 1e-15 at N = 1000 and holds at N = 20, where the f''' term is ~1e-8
    def f(m):
        r = mp.sqrt(m * m - x * x)
        return (m + r) ** mp.mpf(-0.5) / r

    def bound(n):
        with mp.workdps(30):
            return float(abs(mp.diff(f, mp.mpf(n), 5)) / 15120)

    assert verify.SERIES_007_TERMS == 1000 and bound(1000) < 1e-15
    monkeypatch.setattr(verify, "SERIES_007_TERMS", 20)
    err = abs(verify._series_007_rhs(x) - polylog_trig_oracle(0.5, x)[1])
    assert 1e-13 < bound(20) and err <= x / sqrt(2) * bound(20) + 1e-15


def test_checks_store_python_floats_and_bools():
    # lemma34's dJ/dnu is a numpy float64; its check still stores a bool, which
    # JSON prints as true, not as the string "True"
    for name in ("lemma34", "telescope"):
        for c in verify.run_identity(name):
            assert type(c.passed) is bool, c
            assert {type(c.value), type(c.expected), type(c.abs_error)} == {float}, c
