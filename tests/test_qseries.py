"""Series arithmetic, eta, and the Eisenstein combination.

The two independent oracles here: the pentagonal-number expansion of the
Euler product (checked against the plain product of factors, then raised
to the eighth power), and a truncated lattice sum over a congruence class
evaluated numerically at an interior point.
"""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import triform
from triform import cli
from triform.exact import CycQ, OMEGA, root_of_unity
from triform.fqm import paper_module
from triform.qseries import (
    PrecisionError,
    QSeries,
    TYPE_COUNTS,
    complex_matrix,
    cyc_complex,
    eisenstein_g4,
    eta_power_8,
    evaluate,
    numeric_transform_check,
    obstruction_eisenstein,
    one_series,
)
from triform.weil import S_MAT, T_MAT, _mul2, aggregated_dual, build_weil, special_vectors


def series(pairs, precision):
    return QSeries({n: CycQ.rational(v) for n, v in pairs}, precision)


# ---------------------------------------------------------------------------
# arithmetic


def test_basic_arithmetic():
    a = series([(0, 1), (3, 2)], 10)
    b = series([(3, Fraction(1, 2)), (6, -1)], 10)
    s = a + b
    assert s.coeff_at(3) == Fraction(5, 2)
    assert s.coeff_at(0) == 1
    assert s.coeff_at(6) == -1
    p = a * b
    # (1 + 2 q) (q/2 - q^2) = q/2 + 0 q^2 - 2 q^3
    assert p.coeff_at(3) == Fraction(1, 2)
    assert p.coeff_at(6).is_zero()
    assert p.coeff_at(9) == -2
    assert (a - a) == QSeries({}, 10)
    assert a.scale(OMEGA).coeff_at(3) == 2 * OMEGA


def test_precision_accounting():
    a = series([(2, 1)], 10)     # supported from q^(2/3)
    b = series([(1, 1)], 8)      # supported from q^(1/3)
    p = a * b
    # trustworthy to min(10 + 1, 8 + 2) = 10
    assert p.precision == 10
    assert p.coeff_at(3) == 1
    with pytest.raises(PrecisionError):
        p.coeff_at(11)
    s = a + b
    assert s.precision == 8
    with pytest.raises(PrecisionError):
        s.coeff_at(9)


def test_shift_and_support():
    a = series([(0, 1), (5, -3)], 12)
    sh = a.shift(2)
    assert sh.support() == (2, 7)
    assert sh.precision == 14
    assert sh.coeff_at(7) == -3
    assert a.leading() == (0, CycQ.rational(1))
    assert QSeries({}, 5).leading() is None


def test_coefficients_beyond_precision_are_dropped():
    a = QSeries({3: CycQ.rational(1), 99: CycQ.rational(7)}, 10)
    assert a.support() == (3,)


integer_series = st.dictionaries(st.integers(-6, 30), st.integers(-4, 4), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_series, integer_series, st.integers(-8, 40), st.integers(-8, 40))
@example({-2: 1}, {-2: 1}, -3, -3)  # both truncations empty below the support
def test_truncations_never_over_claim_precision(f, g, pf, pg):
    """A product or sum of truncations agrees with the untruncated result on
    every exponent up to the precision it claims."""
    full_f, full_g = series(f.items(), 100), series(g.items(), 100)
    cut_f, cut_g = series(f.items(), pf), series(g.items(), pg)
    for cut, full in ((cut_f * cut_g, full_f * full_g), (cut_f + cut_g, full_f + full_g)):
        assert full.precision >= cut.precision
        for n in range(-12, cut.precision + 1):
            assert cut.coeff_at(n) == full.coeff_at(n), (n, cut.precision)


# ---------------------------------------------------------------------------
# eta^8 against the pentagonal-number expansion


def euler_product_factors(precision):
    prod = one_series(precision)
    n = 1
    while 3 * n <= precision:
        prod = prod * QSeries(
            {0: CycQ.rational(1), 3 * n: CycQ.rational(-1)}, precision)
        n += 1
    return prod


def euler_product_pentagonal(precision):
    out = {}
    k = 1
    out[0] = CycQ.rational(1)
    while True:
        exps = (3 * k * (3 * k - 1) // 2, 3 * k * (3 * k + 1) // 2)
        if min(exps) > precision:
            break
        sign = CycQ.rational((-1) ** k)
        for e in exps:
            if e <= precision:
                out[e] = sign
        k += 1
    return QSeries(out, precision)


def test_pentagonal_oracle_matches_factor_product():
    assert euler_product_factors(60) == euler_product_pentagonal(60)


def test_eta_power_8_leading_coefficients():
    eta8 = eta_power_8(30)
    assert eta8.coeff_at(1) == 1
    assert eta8.coeff_at(4) == -8
    assert eta8.coeff_at(7) == 20
    assert all(n % 3 == 1 for n in eta8.support())


def test_eta_power_8_matches_pentagonal_eighth_power():
    for precision in (1, 2, 4, 61, 137, 300):
        phi = euler_product_pentagonal(precision - 1)
        p2 = phi * phi
        p8 = (p2 * p2) * (p2 * p2)
        eta8 = eta_power_8(precision)
        assert eta8.precision == p8.shift(1).precision == precision
        assert p8.shift(1) == eta8


def test_eta_power_8_needs_the_leading_term():
    with pytest.raises(PrecisionError):
        eta_power_8(0)


# ---------------------------------------------------------------------------
# Eisenstein components


def test_eisenstein_constant_terms():
    assert eisenstein_g4(0, 1, 6).coeff_at(0) == Fraction(1, 3)
    assert eisenstein_g4(0, 2, 6).coeff_at(0) == Fraction(1, 3)
    for b in range(3):
        assert eisenstein_g4(1, b, 6).coeff_at(0).is_zero()
        assert eisenstein_g4(2, b, 6).coeff_at(0).is_zero()
    with pytest.raises(ValueError):
        eisenstein_g4(0, 0, 6)


def divisor_sum_g4(a, b, precision):
    """The former eisenstein_g4: scans every m <= l for every l, adding CycQ values."""
    a %= 3
    b %= 3
    out = {}
    if a == 0:
        out[0] = CycQ.rational(Fraction(1, 90) * (1 - Fraction(1, 81)) * Fraction(243, 8))
    for l in range(1, precision + 1):
        acc = CycQ.rational(0)
        for m in range(1, l + 1):
            if l % m:
                continue
            r = l // m
            if m % 3 == a:
                acc = acc + Fraction(r ** 3) * root_of_unity(r * b, 3)
            if m % 3 == (-a) % 3:
                acc = acc + Fraction(r ** 3) * root_of_unity(-r * b, 3)
        if not acc.is_zero():
            out[l] = acc
    return QSeries(out, precision)


NONZERO_CLASSES = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]


@pytest.mark.parametrize("a,b", NONZERO_CLASSES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 300))
@example(0, 0, 300)
@example(1, -1, 300)  # (4, -1) for the class (1, 2)
@example(-1, 1, 300)  # (-2, 5) for the class (1, 2)
def test_divisor_sieve_matches_the_divisor_sum(a, b, i, j, precision):
    # unreduced representatives (a + 3i, b + 3j) of the class (a, b)
    a, b = a + 3 * i, b + 3 * j
    sieve, reference = eisenstein_g4(a, b, precision), divisor_sum_g4(a, b, precision)
    assert sieve.precision == reference.precision == precision
    assert sieve.support() == reference.support()
    assert all(sieve.coeff_at(n) == reference.coeff_at(n) for n in sieve.support())


@pytest.mark.parametrize("a,b", [(0, 0), (3, 0), (0, -3)])
def test_eisenstein_rejects_the_origin_class(a, b):
    with pytest.raises(ValueError, match="excluded origin"):
        eisenstein_g4(a, b, 30)


def test_qseries_imports_without_numpy():
    src = os.path.dirname(os.path.dirname(triform.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import triform.qseries; import sys; assert 'numpy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_eisenstein_hand_checked_coefficients():
    e = eisenstein_g4(1, 0, 9)
    assert e.coeff_at(1) == 1                      # (m, r) = (1, 1)
    assert e.coeff_at(2) == 9                      # 8 from (1, 2), 1 from (2, 1)
    assert e.coeff_at(3) == 27                     # (1, 3) only; m = 3 excluded
    e11 = eisenstein_g4(1, 1, 9)
    assert e11.coeff_at(2) == 9 * OMEGA * OMEGA    # 8 w^2 + w^(-1)
    e01 = eisenstein_g4(0, 1, 9)
    assert e01.coeff_at(3) == -1                   # w + w^2
    assert e01.coeff_at(1).is_zero()
    assert e01.coeff_at(2).is_zero()


def lattice_sum(a, b, tau, box=2000):
    """sum (m tau + n)^(-4) over (m, n) = (a, b) mod 3 in a box, numerically.

    The tail beyond |m|, |n| <= 2000 is of order box^(-2) ~ 1e-7 before
    normalization, so a 1e-6 comparison is safe.
    """
    ms = np.arange(-box, box + 1)
    ns = np.arange(-box, box + 1)
    ms = ms[ms % 3 == a % 3].astype(np.float64)
    ns = ns[ns % 3 == b % 3].astype(np.float64)
    total = 0j
    for chunk in np.array_split(ms, 8):
        grid = chunk[:, None] * tau + ns[None, :]
        total += np.sum(grid ** -4.0)
    return complex(total)


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (1, 1), (1, 2)])
def test_eisenstein_lattice_sum_oracle(a, b):
    tau = 1.3j
    c = (2 * math.pi) ** 4 / 486
    grid = lattice_sum(a, b, tau)
    expansion = evaluate(eisenstein_g4(a, b, 60), tau)
    assert abs(grid / c - expansion) < 1e-6
    # the closed-form rows of the gauntlet's oracle, within the grid's truncation
    assert abs(cli._lattice_sum(a, b, tau) - grid) < 1e-7 * abs(grid)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-0.5, 0.5), st.floats(0.8, 3.0), st.integers(-6, 6), st.integers(0, 2))
def test_closed_form_row_matches_a_direct_sum(x, y, m, b):
    """One row of the oracle, sum_k (w + k)^-4, against |k| <= K summed directly.

    For |k| > K, |w + k| >= |k| - |Re w|, so the rest is at most
    2 / (3 (K - |Re w|)^3); rounding adds at most 1e-13 of sum |w + k|^-4.
    """
    assume(m or b)
    w = (m * complex(x, y) + b) / 3
    big_k = 10 ** 4
    terms = (w + np.arange(-big_k, big_k + 1)) ** -4.0
    tail = 2 / (3 * (big_k - abs(w.real)) ** 3)
    rounding = 1e-13 * np.abs(terms).sum()
    assert abs(cli._shifted_quartic_sum(w) - terms.sum()) <= tail + rounding


@pytest.mark.parametrize("a,b,tau,match", [
    (0, 0, 1.3j, "excluded origin"),
    (0, 1, 0.05j, "tail bound"),  # too near the real line for 40 rows
    (0, 1, -0.05j, "tail bound"),  # the same, below the real line
    (0, 1, 0.5 + 0j, "tail bound"),  # on the real line the rows do not decay
], ids=["origin-class", "tau-near-real-line", "tau-below-real-line", "tau-real"])
def test_closed_form_rows_reject(a, b, tau, match):
    with pytest.raises(ValueError, match=match):
        cli._lattice_sum(a, b, tau)


# ---------------------------------------------------------------------------
# the T-invariant combination


def test_combination_coefficients_solved_exactly():
    form = obstruction_eisenstein(12)
    assert form.weights == (Fraction(-3, 2), Fraction(1, 6))
    assert form.type_counts == TYPE_COUNTS


def test_combination_leading_terms():
    form = obstruction_eisenstein(12)
    f00, f0 = form.component("00"), form.component("0")
    f1, f2 = form.component("1"), form.component("2")
    assert f00.coeff_at(0) == Fraction(-1, 2)
    assert f00.coeff_at(3) == 15
    assert f0.coeff_at(0).is_zero()
    assert f0.leading() == (3, CycQ.rational(270))
    assert f1.leading() == (2, CycQ.rational(135))
    assert f2.leading() == (1, CycQ.rational(15))


def test_component_support_residues():
    form = obstruction_eisenstein(24)
    residues = {"00": 0, "0": 0, "1": 2, "2": 1}
    for label, r in residues.items():
        assert all(n % 3 == r for n in form.component(label).support())


def test_per_element_coefficients():
    # the coefficient at one element of a type: aggregated / type size
    form = obstruction_eisenstein(12)

    def per_element(label, numerator):
        return form.component(label).coeff_at(numerator) / form.type_counts[label]

    assert per_element("1", 2) == Fraction(135, 30)
    assert per_element("2", 1) == Fraction(15, 30)
    assert per_element("0", 3) == Fraction(270, 20)
    assert per_element("00", 3) == 15


def test_all_coefficients_are_real_rationals():
    # each aggregated component is a sum over a conjugation-stable class,
    # so the cyclotomic parts must cancel
    form = obstruction_eisenstein(18)
    for label in ("00", "0", "1", "2"):
        for n in form.component(label).support():
            v = form.component(label).coeff_at(n)
            assert v.is_rational()
            assert v == v.conjugate()


# ---------------------------------------------------------------------------
# numeric transformation checks


def test_evaluate_preconditions():
    with pytest.raises(ValueError):
        evaluate(one_series(6), 0.5 - 1j)
    with pytest.raises(ValueError):
        numeric_transform_check([one_series(70)], [[CycQ.rational(1)]],
                                [[CycQ.rational(1)]], 4, 0.1 + 0.3j)
    with pytest.raises(PrecisionError):
        numeric_transform_check([one_series(10)], [[CycQ.rational(1)]],
                                [[CycQ.rational(1)]], 4, 0.3 + 1.1j)


def test_cyc_complex_values():
    assert cyc_complex(CycQ.rational(Fraction(3, 4))) == 0.75
    w = cyc_complex(OMEGA)
    assert abs(w - cmath.exp(2j * cmath.pi / 3)) < 1e-15


def test_aggregated_eisenstein_transforms_numerically():
    rep = build_weil(paper_module())
    agg_t, agg_s = aggregated_dual(rep)
    form = obstruction_eisenstein(60)
    components = [form.component(t) for t in ("00", "0", "1", "2")]
    out = numeric_transform_check(components, agg_t, agg_s, 4, 0.3 + 1.1j)
    assert out["max_deviation"] < 1e-8


def test_eta_times_special_vector_transforms_numerically():
    rep = build_weil(paper_module())
    sv = special_vectors(rep)[0]
    eta8 = eta_power_8(60)
    components = [eta8.scale(c) for c in sv.vec]
    out = numeric_transform_check(components, rep.rho_T, rep.rho_S, 4,
                                  0.3 + 1.1j)
    assert out["max_deviation"] < 1e-8


def test_complex_matrix_rounds_each_entry_as_cyc_complex():
    # the complex128 view must reproduce the entry-by-entry conversion bit for bit
    rep = build_weil(paper_module())
    for m in (rep.rho_S, rep.rho_T, rep.rho[_mul2(S_MAT, T_MAT)]):
        fast = complex_matrix(m)
        slow = [[complex(cyc_complex(m.entry(i, j))) for j in range(81)] for i in range(81)]
        assert repr(fast) == repr(slow)
