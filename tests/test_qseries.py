"""Series arithmetic, eta, and the Eisenstein combination.

The two independent oracles here: the pentagonal-number expansion of the
Euler product (checked against the plain product of factors, then raised
to the eighth power), and a truncated lattice sum over a congruence class
evaluated numerically at an interior point.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

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
    zero_series,
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
    assert (a - a) == zero_series(10)
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
    assert zero_series(5).leading() is None


def test_coefficients_beyond_precision_are_dropped():
    a = QSeries({3: CycQ.rational(1), 99: CycQ.rational(7)}, 10)
    assert a.support() == (3,)


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
    phi = euler_product_pentagonal(60)
    p2 = phi * phi
    p8 = (p2 * p2) * (p2 * p2)
    assert p8.shift(1) == eta_power_8(61)


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
    direct = lattice_sum(a, b, tau) / c
    expansion = evaluate(eisenstein_g4(a, b, 60), tau)
    assert abs(direct - expansion) < 1e-6


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
    form = obstruction_eisenstein(12)
    assert form.per_element_coeff("1", 2) == Fraction(135, 30)
    assert form.per_element_coeff("2", 1) == Fraction(15, 30)
    assert form.per_element_coeff("0", 3) == Fraction(270, 20)
    assert form.per_element_coeff("00", 3) == 15


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
