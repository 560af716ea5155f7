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
    complex_matrix,
    cyc_complex,
    eisenstein_g4,
    eta_power_8,
    evaluate,
    numeric_transform_check,
    obstruction_eisenstein,
)
from triform.weil import (
    S_MAT,
    T_MAT,
    OmegaMat,
    _mul2,
    aggregated_dual,
    build_weil,
    special_vectors,
)
from weil_oracle import numerators, omega_mat


def series(pairs, precision):
    return QSeries({n: CycQ.rational(v) for n, v in pairs}, precision)


# ---------------------------------------------------------------------------
# storage


def test_support_and_leading():
    a = series([(0, 1), (5, -3)], 12)
    assert a.support() == (0, 5)
    assert a.coeff_at(5) == -3
    assert a.scale(OMEGA).coeff_at(5) == -3 * OMEGA
    with pytest.raises(PrecisionError):
        a.coeff_at(13)
    assert a.leading() == (0, CycQ.rational(1))
    assert QSeries({}, 5).leading() is None


def test_coefficients_beyond_precision_are_dropped():
    a = QSeries({3: CycQ.rational(1), 99: CycQ.rational(7)}, 10)
    assert a.support() == (3,)


# ---------------------------------------------------------------------------
# eta^8 against the pentagonal-number expansion


def times(f, g, top):
    """The product of two integer power series {exponent: coefficient} up to q^top."""
    out = {}
    for m, x in f.items():
        for n, y in g.items():
            if m + n <= top:
                out[m + n] = out.get(m + n, 0) + x * y
    return out


def euler_product_factors(top):
    """prod_(n>=1) (1 - q^n) up to q^top, factor by factor."""
    prod = {0: 1}
    for n in range(1, top + 1):
        prod = times(prod, {0: 1, n: -1}, top)
    return {n: c for n, c in prod.items() if c}


def euler_product_pentagonal(top):
    """The same product from Euler's pentagonal number theorem."""
    out = {0: 1}
    for k in range(1, top + 1):
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= top:
                out[e] = (-1) ** k
    return out


def test_pentagonal_oracle_matches_factor_product():
    assert euler_product_factors(20) == euler_product_pentagonal(20)


def test_eta_power_8_leading_coefficients():
    eta8 = eta_power_8(30)
    assert eta8.coeff_at(1) == 1
    assert eta8.coeff_at(4) == -8
    assert eta8.coeff_at(7) == 20
    assert all(n % 3 == 1 for n in eta8.support())


def test_eta_power_8_matches_pentagonal_eighth_power():
    for precision in (1, 2, 4, 61, 137, 300):
        top = (precision - 1) // 3  # q^(1/3) q^top is the last term within precision
        phi = euler_product_pentagonal(top)
        p2 = times(phi, phi, top)
        p8 = times(times(p2, p2, top), times(p2, p2, top), top)
        eta8 = eta_power_8(precision)
        assert eta8.precision == precision
        assert eta8.coeffs == {3 * n + 1: CycQ.rational(c) for n, c in p8.items() if c}


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
    type_counts = {"00": 1, "0": 20, "1": 30, "2": 30}

    def per_element(label, numerator):
        return form.component(label).coeff_at(numerator) / type_counts[label]

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
    one = OmegaMat.identity(1)
    with pytest.raises(ValueError):
        evaluate(series([(0, 1)], 6), 0.5 - 1j)
    with pytest.raises(ValueError):
        numeric_transform_check([series([(0, 1)], 70)], one, one, 4, 0.1 + 0.3j)
    with pytest.raises(PrecisionError):
        numeric_transform_check([series([(0, 1)], 10)], one, one, 4, 0.3 + 1.1j)


def test_cyc_complex_values():
    assert cyc_complex(CycQ.rational(Fraction(3, 4))) == 0.75
    w = cyc_complex(OMEGA)
    assert abs(w - cmath.exp(2j * cmath.pi / 3)) < 1e-15


def cyc_omega_mat(grid):
    """A matrix of CycQ values in Q(w) as an OmegaMat."""
    values = [[v.embed(3) for v in row] for row in grid]
    den = math.lcm(*(v.den for row in values for v in row))
    a, b = ([[v.num[k] * (den // v.den) for v in row] for row in values] for k in (0, 1))
    return omega_mat(a, b, den)


def test_aggregated_eisenstein_transforms_numerically():
    rep = build_weil(paper_module())
    agg_t, agg_s = (cyc_omega_mat(m) for m in aggregated_dual(rep))
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


def _all_columns_check(components, rho_t, rho_s, weight, tau):
    """The spot check as it was, summing over all 81 columns: the oracle of the
    sum over the columns where f(tau) != 0."""
    t_mat, s_mat = complex_matrix(rho_t), complex_matrix(rho_s)
    at_tau = [evaluate(c, tau) for c in components]
    at_plus = [evaluate(c, tau + 1) for c in components]
    at_inv = [evaluate(c, -1 / tau) for c in components]
    n = len(components)
    dev_t = max(abs(at_plus[i] - sum(t_mat[i][j] * at_tau[j] for j in range(n)))
                for i in range(n))
    dev_s = max(abs(at_inv[i] - tau ** weight * sum(s_mat[i][j] * at_tau[j] for j in range(n)))
                for i in range(n))
    return {"t_deviation": dev_t, "s_deviation": dev_s, "max_deviation": max(dev_t, dev_s)}


@pytest.mark.parametrize("bump", [0, 1], ids=["paper", "bumped-eta8"])
def test_the_support_sum_equals_the_all_columns_sum_bit_for_bit(bump):
    # bumped, eta^8 at q^(7/3) is the negative control of the numeric-transform line
    rep = build_weil(paper_module())
    sv = next(sv for sv in special_vectors(rep) if sv.basis.alpha0 == (1, 0, 0, 0))
    eta8 = eta_power_8(60)
    eta8 = QSeries({**eta8.coeffs, 7: eta8.coeff_at(7) + bump}, eta8.precision)
    components = [eta8.scale(c) for c in sv.vec]
    assert sum(1 for c in components if c.coeffs) == 16
    args = (components, rep.rho_T, rep.rho_S, 4, 0.3 + 1.1j)
    out = numeric_transform_check(*args)
    assert out == _all_columns_check(*args)
    assert (f"{out['max_deviation']:.3e}" == "3.946e-06") == bool(bump)


def test_complex_matrix_rounds_each_entry_as_cyc_complex():
    # the complex128 view must reproduce the entry-by-entry conversion bit for bit
    rep = build_weil(paper_module())
    for m in (rep.rho_S, rep.rho_T, rep.rho[_mul2(S_MAT, T_MAT)]):
        fast = complex_matrix(m)
        a, b = numerators(m)
        slow = [[complex(cyc_complex(CycQ(3, [int(a[i, j]), int(b[i, j])], m.den)))
                 for j in range(81)] for i in range(81)]
        assert repr(fast) == repr(slow)
