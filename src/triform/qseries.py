"""Exact q-series with third-integer exponents, Eisenstein components, eta.

A QSeries stores coefficients at exponents n/3 as a dict {n: CycQ} together
with the largest trustworthy numerator (`precision`).

All Eisenstein data is normalized by the constant c = (2 pi)^4 / 486, which
turns every coefficient into a cyclotomic integer (and the constant term of
the a = 0 series into exactly 1/3, via the exact zeta(4) ratio).

The kernels compute on Python ints and build one CycQ per stored
coefficient.  The Eisenstein sums come from a divisor sieve into two int
lists over the basis 1, w of Z[w], O(P log P) at precision P; the
T-invariant combination is an integer combination of those lists over one
denominator.  eta^8 multiplies a dense int list eight times by the sparse
pentagonal series, O(P^1.5).

Floating-point code lives at the bottom of this module: evaluation of a
series at a point of the upper half plane and the modular-transformation
spot check; the package's only other floats are in cli._lattice_sum.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .exact import CycQ, OMEGA, W_POWERS, mat_det, mat_solve


class PrecisionError(ValueError):
    """A coefficient beyond the trustworthy range was requested."""


class QSeries:
    """sum coeffs[n] q^(n/3), trustworthy for n <= precision."""

    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs: dict, precision: int):
        self.coeffs, self.precision = {}, precision
        for n, v in coeffs.items():
            if n > precision:
                continue
            v = v if isinstance(v, CycQ) else CycQ.rational(v)
            if not v.is_zero():
                self.coeffs[int(n)] = v

    def coeff_at(self, numerator: int) -> CycQ:
        if numerator > self.precision:
            raise PrecisionError(
                f"coefficient q^({numerator}/3) beyond precision {self.precision}")
        return self.coeffs.get(numerator, CycQ.rational(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def leading(self) -> tuple[int, CycQ] | None:
        if not self.coeffs:
            return None
        n = min(self.coeffs)
        return n, self.coeffs[n]

    def scale(self, s) -> "QSeries":
        s = s if isinstance(s, CycQ) else CycQ.rational(s)
        if s.is_zero():
            return QSeries({}, self.precision)
        return QSeries({n: s * v for n, v in self.coeffs.items()}, self.precision)


# ---------------------------------------------------------------------------
# eta^8


def eta_power_8(precision: int) -> QSeries:
    """q^(1/3) prod_(n>=1) (1 - q^n)^8, with exact integer coefficients.

    The Euler product is the sparse pentagonal series sum_k (-1)^k
    q^(k (3k - 1) / 2) over all integers k; eight multiplications of a dense
    int list by it give the coefficients up to q^K in O(K^1.5).
    """
    if precision < 1:
        raise PrecisionError("need precision >= 1 to see the leading term")
    top = (precision - 1) // 3  # the last integral exponent within precision
    pentagonal = [(k * (3 * k - 1) // 2, (-1) ** (k % 2)) for k in range(-top, top + 1)
                  if 0 < k * (3 * k - 1) // 2 <= top]
    coeffs = [1] + [0] * top
    for _ in range(8):
        prod = list(coeffs)
        for e, sign in pentagonal:
            prod[e:] = [p + sign * c for p, c in zip(prod[e:], coeffs)]
        coeffs = prod
    return QSeries({3 * n + 1: c for n, c in enumerate(coeffs)}, precision)


# ---------------------------------------------------------------------------
# Eisenstein components


def _twist(p: int, x: list, y: list) -> tuple[list, list]:
    """The entries x[l] + y[l] w times w^p, as two lists."""
    for _ in range(p % 3):
        x, y = [-v for v in y], [u - v for u, v in zip(x, y)]
    return x, y


def _divisor_sieve(a: int, b: int, precision: int) -> tuple[list, list[int]]:
    """The coefficients x[l] + y[l] w of eisenstein_g4(a, b) at q^(l/3), a and b reduced.

    x[0] is the rational constant term and y[0] = 0; all other entries are
    ints.  Each pair (m, r) with m = +-a mod 3 adds r^3 w^(+-r b) at l = m r,
    so the sieve takes sum_m precision/m = O(P log P) steps.
    """
    # zeta(4) (1 - 3^(-4)) / c with zeta(4) = pi^4/90 and c = 8 pi^4/243
    constant = Fraction(1, 90) * (1 - Fraction(1, 81)) * Fraction(243, 8) if a == 0 else 0
    x = [constant] + [0] * precision
    y = [0] * (precision + 1)
    for m in range(1, precision + 1):
        for sign in (1, -1):
            if m % 3 != sign * a % 3:
                continue
            for r, l in enumerate(range(m, precision + 1, m), 1):
                u, v = W_POWERS[sign * r * b % 3]
                cube = r ** 3
                x[l] += u * cube
                y[l] += v * cube
    return x, y


def _series(x: list, y: list, den: int, precision: int) -> QSeries:
    """sum_l (x[l] + y[l] w) / den q^(l/3); one CycQ per nonzero l."""
    return QSeries({l: CycQ(3, (x[l], y[l]), den)
                    for l in range(precision + 1) if x[l] or y[l]}, precision)


def eisenstein_g4(a: int, b: int, precision: int) -> QSeries:
    """The normalized congruence Eisenstein sum of weight 4 for (a, b) mod 3.

    Coefficient of q^(l/3), l >= 1:
        sum_(r m = l, m > 0, m = a mod 3)  r^3 zeta^(r b)
      + sum_(r m = l, m > 0, m = -a mod 3) r^3 zeta^(-r b)
    Constant term: 1/3 if a = 0 mod 3 (exact zeta(4) ratio), else 0.
    """
    a %= 3
    b %= 3
    if a == 0 and b == 0:
        raise ValueError("the congruence class (0, 0) contains the excluded origin")
    return _series(*_divisor_sieve(a, b, precision), 1, precision)


class VVForm(NamedTuple):
    """A four-component form indexed by the element types."""

    components: dict
    weights: tuple  # the solved combination coefficients (a, b)

    def component(self, label: str) -> QSeries:
        return self.components[label]


def obstruction_eisenstein(precision: int) -> VVForm:
    """The T-invariant Eisenstein combination with constant term -1/2 e_0.

    Built from the four congruence sums e1..e4 of the classes (0, 1), (1, 0),
    (1, 1), (1, 2); the two combination coefficients are solved exactly from
    the constant-term constraints (the zero class gets -1/2, the isotropic
    class gets 0).  Each component is an integer combination of the sieve
    lists over one common denominator.  The zero-class q-coefficient is 15,
    where an alternative reading of the integral-exponent series constant
    would give 54; the divisor sum and the lattice-sum cross-check agree on 15.
    """
    classes = ((0, 1), (1, 0), (1, 1), (1, 2))
    sieves = [_divisor_sieve(a, b, precision) for a, b in classes]

    # f_00 = a e1 + b esum, f_0 = (-a - 9b) e1 + (-3a - 7b) esum with
    # esum = e2 + e3 + e4; constants: f_00 -> -1/2, f_0 -> 0
    c1, cs = sieves[0][0][0], sum(x[0] for x, _ in sieves[1:])
    constraints = ((c1, cs), (-c1 - 3 * cs, -9 * c1 - 7 * cs))
    if mat_det(constraints) == 0:
        raise ValueError("constant-term constraints are singular")
    a_coef, b_coef = mat_solve(constraints, (Fraction(-1, 2), 0))

    # each component as sum_i coef_i w^(p_i) e_i, one (coef_i, p_i) per e_i;
    # f_1 = outer (e2 + w e3 + w^2 e4), f_2 = outer (e2 + w^2 e3 + w e4)
    outer = -3 * a_coef + 3 * b_coef
    f0_sum = -3 * a_coef - 7 * b_coef
    combinations = {
        "00": ((a_coef, 0), (b_coef, 0), (b_coef, 0), (b_coef, 0)),
        "0": ((-a_coef - 9 * b_coef, 0), (f0_sum, 0), (f0_sum, 0), (f0_sum, 0)),
        "1": ((0, 0), (outer, 0), (outer, 1), (outer, 2)),
        "2": ((0, 0), (outer, 0), (outer, 2), (outer, 1)),
    }
    den = lcm(*(Fraction(c).denominator for terms in combinations.values() for c, _ in terms))
    components = {}
    for label, terms in combinations.items():
        xs, ys = [0] * (precision + 1), [0] * (precision + 1)
        for (coef, p), (x, y) in zip(terms, sieves):
            k = int(coef * den)
            tx, ty = _twist(p, x, y)
            xs = [s + k * t for s, t in zip(xs, tx)]
            ys = [s + k * t for s, t in zip(ys, ty)]
        components[label] = _series(xs, ys, den, precision)

    residues = {"00": 0, "0": 0, "1": 2, "2": 1}
    for label, series in components.items():
        for n in series.support():
            if n % 3 != residues[label]:
                raise ValueError(
                    f"component {label} has support at q^({n}/3), breaking "
                    "translation equivariance")
    f00, f0 = components["00"], components["0"]
    if not f00.coeff_at(0) == Fraction(-1, 2):
        raise ValueError("zero-class constant term is not -1/2")
    if not f0.coeff_at(0).is_zero():
        raise ValueError("isotropic-class constant term is not 0")

    return VVForm(components, (a_coef, b_coef))


# ---------------------------------------------------------------------------
# numeric evaluation (floats are confined to what follows)


def cyc_complex(v: CycQ) -> complex:
    return sum(x / v.den * cmath.exp(2j * cmath.pi * k / v.n)
               for k, x in enumerate(v.num) if x) if not v.is_zero() else 0j


def evaluate(series: QSeries, tau: complex) -> complex:
    """Numeric value at tau in the upper half plane (q = e^(2 pi i tau))."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    q_third = cmath.exp(2j * cmath.pi * tau / 3)
    return sum(cyc_complex(v) * q_third ** n for n, v in series.coeffs.items())


def complex_matrix(m, cols=None) -> list[list[complex]]:
    """An OmegaMat as complex numbers, at the columns `cols` (default all);
    each entry rounds as cyc_complex's."""
    w = cyc_complex(OMEGA)
    cols = range(m.cols) if cols is None else cols
    return [[a[j] / m.den + b[j] / m.den * w for j in cols] for a, b in zip(*m.rows())]


def numeric_transform_check(components, rho_t, rho_s, weight: int,
                            tau: complex) -> dict:
    """Spot-check f(tau + 1) = rho(T) f(tau) and f(-1/tau) = tau^k rho(S) f(tau).

    Requires Im(tau) >= 0.8 and Im(-1/tau) >= 0.5 so the truncation tails
    are negligible against the reported deviations, and precision >= 60 on
    every component.
    """
    inv = -1 / tau
    if tau.imag < 0.8 or inv.imag < 0.5:
        raise ValueError("tau too close to the real line for a safe check")
    if any(c.precision < 60 for c in components):
        raise PrecisionError("need precision >= 60 for the transformation check")
    at_tau = [evaluate(c, tau) for c in components]
    at_plus = [evaluate(c, tau + 1) for c in components]
    at_inv = [evaluate(c, inv) for c in components]
    # a column where f(tau) = 0 adds only zeros, which change no partial sum
    # but in the sign of a zero, and abs ignores that sign
    support = [j for j, v in enumerate(at_tau) if v != 0]
    values = [at_tau[j] for j in support]
    t_mat, s_mat = complex_matrix(rho_t, support), complex_matrix(rho_s, support)
    dev_t = max(abs(y - sum(map(mul, row, values))) for y, row in zip(at_plus, t_mat))
    factor = tau ** weight
    dev_s = max(abs(y - factor * sum(map(mul, row, values))) for y, row in zip(at_inv, s_mat))
    return {"t_deviation": dev_t, "s_deviation": dev_s,
            "max_deviation": max(dev_t, dev_s)}
