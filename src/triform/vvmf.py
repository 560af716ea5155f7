"""Dimension formulas for vector-valued modular forms in integral weight.

Input is a finite-dimensional representation given by exact matrices for T
and S satisfying S^4 = 1 and (ST)^3 = S^2.  For weight k >= 3 the dimension
of the space of holomorphic forms is computed on the (-1)^k eigenspace V+
of S^2 (Borcherds, Duke Math. J. 104, 2000):

    dim M_k = d + d k / 12 - alpha(e^(pi i k/2) S) - alpha((e^(pi i k/3) ST)^(-1))
            - alpha(T)

with d = dim V+, every operator restricted to V+, and alpha the sum of
eigenphases in [0, 1).  The Eisenstein part is the space of T-invariants in
V+; the cusp part is the difference.

No basis of V+ is built.  With eps = (-1)^k and P = (1 + eps S^2) / 2:
P^2 = P by S^4 = 1, so d = tr P; S^2 = (ST)^3 commutes with S and ST, so P
commutes with S and T, and X on V+ has tr X^m = tr(X^m P).  A = i^k S and
B = e^(pi i k/3) ST have A^2 = B^3 = eps S^2 = 1 on V+, so their phases
come from d and c^m tr(X^m P), c the root of unity scaling X.  Each phase
j/3 != 0 of B inverts to 1 - j/3, so alpha(B^(-1)) = d - m_0(B) - alpha(B),
with m_0 the multiplicity of phase 0.  T has finite order, so it is
diagonalizable, and its invariants in V+ number m_0(T on V+).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import (
    Matrix,
    alpha_invariant,
    mat_eq,
    mat_from_rows,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_scalar,
    mat_sub,
    mat_trace,
    phase_multiplicities,
    root_of_unity,
    trace_histogram,
)

_MAX_T_ORDER = 60


class DimensionError(ValueError):
    pass


class RepSpec:
    """An exact matrix pair (T, S) generating a modular-group action."""

    __slots__ = ("t_image", "s_image", "s_squared", "st")

    def __init__(self, t_image: Matrix, s_image: Matrix):
        self.t_image = t = mat_from_rows(t_image)
        self.s_image = s = mat_from_rows(s_image)
        n = len(t)
        if len(s) != n or any(len(r) != n for r in t) or any(len(r) != n for r in s):
            raise DimensionError("generator matrices must be square, same size")
        ident = mat_identity(n)
        s2 = mat_mul(s, s)
        if not mat_eq(mat_mul(s2, s2), ident):
            raise DimensionError("S^4 != 1")
        st = mat_mul(s, t)
        if not mat_eq(mat_pow(st, 3), s2):
            raise DimensionError("(ST)^3 != S^2")
        # S^2 and ST, built for the relation checks and read by dimension_report
        self.s_squared, self.st = s2, st


class DimensionReport(NamedTuple):
    weight: int
    dim_plus: int
    alpha_s: Fraction
    alpha_st: Fraction
    alpha_t: Fraction
    dim_modular: int
    dim_eisenstein: int
    dim_cusp: int


def dimension_report(spec: RepSpec, weight: int) -> DimensionReport:
    """Exact dimension bookkeeping for weight >= 3; see the module docstring."""
    if weight <= 2:
        raise DimensionError(f"weight {weight} is below the valid range (k >= 3)")
    ident = mat_identity(len(spec.s_image))
    eps = 1 if weight % 2 == 0 else -1
    # P = (1 + eps S^2) / 2, the projector onto V+
    proj = mat_scalar(Fraction(1, 2), mat_sub(ident, mat_scalar(-eps, spec.s_squared)))
    d = int(mat_trace(proj).as_fraction())  # P^2 = P by S^4 = 1: tr P = rank P

    # A = i^k S and B = e^(pi i k/3) ST: A^2 = B^3 = eps S^2 = 1 on V+, so the
    # last trace is d; the m-th trace of c X is c^m tr(X^m P), (ST P)^2 = (ST)^2 P
    st_p = mat_mul(spec.st, proj)
    alpha_s = alpha_invariant(trace_histogram(
        [root_of_unity(weight, 4) * mat_trace(mat_mul(spec.s_image, proj)), d], d))
    b_mults = trace_histogram([root_of_unity(weight * m, 6) * mat_trace(x)
                               for m, x in enumerate((st_p, mat_mul(st_p, st_p)), 1)] + [d], d)
    alpha_st = d - b_mults.get(Fraction(0), 0) - alpha_invariant(b_mults)
    try:
        t_mults = phase_multiplicities(spec.t_image, _MAX_T_ORDER, proj)
    except ValueError as err:
        raise DimensionError(f"T image on V+: {err}") from err
    alpha_t = alpha_invariant(t_mults)

    total = d + Fraction(d * weight, 12) - alpha_s - alpha_st - alpha_t
    if total.denominator != 1:
        raise DimensionError(f"dimension formula gave the non-integer {total}")
    if total < 0:
        raise DimensionError(f"dimension formula gave the negative value {total}")

    eis = t_mults.get(Fraction(0), 0)  # T is diagonalizable: finite order
    cusp = int(total) - eis
    if cusp < 0:
        raise DimensionError(
            f"Eisenstein dimension {eis} exceeds the total {int(total)}")
    return DimensionReport(weight, d, alpha_s, alpha_st, alpha_t,
                           int(total), eis, cusp)
