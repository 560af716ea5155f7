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

No basis of V+ is built.  With n the dimension, eps = (-1)^k and
P = (1 + eps S^2) / 2: P^2 = P by S^4 = 1, so d = tr P; S^2 = (ST)^3
commutes with S and ST, so P commutes with S and T.  For X commuting with P,
X+ = I - (I - X) P is X on V+ and 1 on V-: its histogram is X's on V+ plus
n - d at phase 0, with the same alpha.  A = i^k S and B = e^(pi i k/3) ST
have A^2 = B^3 = eps S^2 = 1 on V+, so A+ has order at most 2 and B+ at most
3.  Each phase j/3 != 0 of B inverts to 1 - j/3, so alpha(B^(-1))
= d - m_0(B on V+) - alpha(B) = n - m_0(B+) - alpha(B+), with m_0 the
multiplicity of phase 0.  T has finite order, so it is diagonalizable and
its invariants in V+ number m_0(T+) - (n - d).  At d = 0 every X+ is I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
)

_MAX_T_ORDER = 60


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class RepSpec:
    """An exact matrix pair (T, S) generating a modular-group action."""

    t_image: Matrix
    s_image: Matrix
    # S^2 and ST, built for the relation checks and read by dimension_report
    s_squared: Matrix = field(init=False, compare=False)
    st: Matrix = field(init=False, compare=False)

    def __post_init__(self):
        t = mat_from_rows(self.t_image)
        s = mat_from_rows(self.s_image)
        object.__setattr__(self, "t_image", t)
        object.__setattr__(self, "s_image", s)
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
        object.__setattr__(self, "s_squared", s2)
        object.__setattr__(self, "st", st)


@dataclass(frozen=True)
class DimensionReport:
    weight: int
    dim_plus: int
    alpha_s: Fraction
    alpha_st: Fraction
    alpha_t: Fraction
    dim_modular: int
    dim_eisenstein: int
    dim_cusp: int

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "eigenspace_dimension": self.dim_plus,
            "alpha_s": str(self.alpha_s),
            "alpha_st": str(self.alpha_st),
            "alpha_t": str(self.alpha_t),
            "dim_modular": self.dim_modular,
            "dim_eisenstein": self.dim_eisenstein,
            "dim_cusp": self.dim_cusp,
        }


def dimension_report(spec: RepSpec, weight: int) -> DimensionReport:
    """Exact dimension bookkeeping for weight >= 3; see the module docstring."""
    if weight <= 2:
        raise DimensionError(f"weight {weight} is below the valid range (k >= 3)")
    s, t = spec.s_image, spec.t_image
    n = len(s)
    ident = mat_identity(n)
    eps = 1 if weight % 2 == 0 else -1
    # P = (1 + eps S^2) / 2, the projector onto V+
    proj = mat_scalar(Fraction(1, 2), mat_sub(ident, mat_scalar(-eps, spec.s_squared)))
    d = int(mat_trace(proj).as_fraction())  # P^2 = P by S^4 = 1: tr P = rank P

    def plus(x: Matrix) -> Matrix:
        """x on V+ and 1 on V-: I - (I - x) P."""
        return mat_sub(ident, mat_mul(mat_sub(ident, x), proj))

    # A = i^k S and B = e^(pi i k/3) ST: A^2 = B^3 = eps S^2 = 1 on V+
    alpha_s = alpha_invariant(phase_multiplicities(
        plus(mat_scalar(root_of_unity(weight, 4), s)), 2))
    b_mults = phase_multiplicities(
        plus(mat_scalar(root_of_unity(weight, 6), spec.st)), 3)
    # alpha(B^(-1)) on V+ = d - m_0(B on V+) - alpha(B), and m_0(B+) = m_0(B on V+) + n - d
    alpha_st = n - b_mults.get(Fraction(0), 0) - alpha_invariant(b_mults)
    try:
        t_mults = phase_multiplicities(plus(t), _MAX_T_ORDER)
    except ValueError as err:
        raise DimensionError(f"T image on V+: {err}") from err
    alpha_t = alpha_invariant(t_mults)

    total = d + Fraction(d * weight, 12) - alpha_s - alpha_st - alpha_t
    if total.denominator != 1:
        raise DimensionError(f"dimension formula gave the non-integer {total}")
    if total < 0:
        raise DimensionError(f"dimension formula gave the negative value {total}")

    eis = t_mults.get(Fraction(0), 0) - (n - d)  # T is diagonalizable: finite order
    cusp = int(total) - eis
    if cusp < 0:
        raise DimensionError(
            f"Eisenstein dimension {eis} exceeds the total {int(total)}")
    return DimensionReport(weight, d, alpha_s, alpha_st, alpha_t,
                           int(total), eis, cusp)
