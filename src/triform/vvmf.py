"""Dimension formulas for vector-valued modular forms in integral weight.

Input is a finite-dimensional representation given by exact matrices for T
and S satisfying S^4 = 1 and (ST)^3 = S^2.  For weight k >= 3 the dimension
of the space of holomorphic forms is computed on the (-1)^k eigenspace V+
of S^2:

    dim M_k = d + d k / 12 - alpha(e^(pi i k/2) S) - alpha((e^(pi i k/3) ST)^(-1))
            - alpha(T)

with d = dim V+, every operator restricted to V+, and alpha the sum of
eigenphases in [0, 1).  The Eisenstein part is the space of T-invariants in
V+; the cusp part is the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Matrix,
    alpha_invariant,
    mat_eq,
    mat_from_rows,
    mat_identity,
    mat_mul,
    mat_nullspace,
    mat_pow,
    mat_scalar,
    mat_solve,
    mat_sub,
    mat_vec,
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


def _eigenspace(matrix: Matrix, sign: int):
    n = len(matrix)
    shifted = mat_sub(matrix, mat_scalar(sign, mat_identity(n)))
    return mat_nullspace(shifted)


def _restrict(matrix: Matrix, basis) -> Matrix:
    """The matrix of S or T on an eigenspace of S^2, in the given basis.

    RepSpec has checked S^4 = 1 and (ST)^3 = S^2, so S^2 commutes with S and
    ST, hence with T: both preserve the eigenspace and every solve succeeds.
    """
    bt = tuple(zip(*basis))  # basis vectors as columns
    cols = [mat_solve(bt, mat_vec(matrix, b)) for b in basis]
    return tuple(zip(*cols))


def dimension_report(spec: RepSpec, weight: int) -> DimensionReport:
    """Exact dimension bookkeeping for weight >= 3; see the module docstring."""
    if weight <= 2:
        raise DimensionError(f"weight {weight} is below the valid range (k >= 3)")
    s2 = mat_mul(spec.s_image, spec.s_image)
    sign = 1 if weight % 2 == 0 else -1
    basis = _eigenspace(s2, sign)
    d = len(basis)
    if d == 0:
        return DimensionReport(weight, 0, Fraction(0), Fraction(0), Fraction(0), 0, 0, 0)
    s_r = _restrict(spec.s_image, basis)
    t_r = _restrict(spec.t_image, basis)

    a_s = mat_scalar(root_of_unity(weight, 4), s_r)
    alpha_s = alpha_invariant(phase_multiplicities(a_s, 4))

    b0 = mat_scalar(root_of_unity(weight, 6), mat_mul(s_r, t_r))
    # alpha of b0^(-1): each eigenvalue e(j/6) of b0 (b0^6 = 1 is checked)
    # inverts to e(-j/6), of phase 1 - j/6 for j != 0 and 0 for j = 0, so
    # alpha(b0^(-1)) = (d - m_0) - alpha(b0) with m_0 the multiplicity of 0
    b0_mults = phase_multiplicities(b0, 6)
    alpha_st = d - b0_mults.get(Fraction(0), 0) - alpha_invariant(b0_mults)

    t_order = None
    power = t_r
    for m in range(1, _MAX_T_ORDER + 1):
        if mat_eq(power, mat_identity(d)):
            t_order = m
            break
        power = mat_mul(power, t_r)
    if t_order is None:
        raise DimensionError(f"T image has no finite order up to {_MAX_T_ORDER}")
    alpha_t = alpha_invariant(phase_multiplicities(t_r, t_order))

    total = d + Fraction(d * weight, 12) - alpha_s - alpha_st - alpha_t
    if total.denominator != 1:
        raise DimensionError(f"dimension formula gave the non-integer {total}")
    if total < 0:
        raise DimensionError(f"dimension formula gave the negative value {total}")

    eis = len(_eigenspace(t_r, 1))
    cusp = int(total) - eis
    if cusp < 0:
        raise DimensionError(
            f"Eisenstein dimension {eis} exceeds the total {int(total)}")
    return DimensionReport(weight, d, alpha_s, alpha_st, alpha_t,
                           int(total), eis, cusp)
