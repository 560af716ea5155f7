"""Divisor bookkeeping: product weights, obstructions, and the accounting.

A divisor is a multiset of pairs (type label, negative norm).  Its product
weight is read off the matching Eisenstein coefficients; restriction to the
fixed-point ball divides the weight by three.  The accounting report ties
the basis combinatorics to the weights: every orthogonal basis carries one
long class and three short classes, each short class sits in three bases,
and the resulting per-basis weight is forty-five plus nine times five.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .fqm import (
    TYPE_Q_DISPLAY,
    QuadraticModule,
    aggregated_action,
    canonical_sign,
    classify,
    isotropic_incidence,
    orthogonal_bases,
    paper_module,
)
from .qseries import VVForm

if TYPE_CHECKING:  # vvmf loads only when obstruction_check runs, weil never
    from .vvmf import DimensionReport
    from .weil import SpecialVector


class DivisorError(ValueError):
    """A divisor entry fails the norm or congruence constraints."""


class AccountingError(ArithmeticError):
    """A structural identity failed."""


class DivisorSpec:
    """Formal sum of orthogonal-complement divisors, keyed (label, norm).

    The norm is the self-pairing of the defining dual vector; it must be
    negative and congruent mod 2 to the displayed value of its type.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = {}
        for (label, norm), mult in entries.items():
            if label not in TYPE_Q_DISPLAY:
                raise DivisorError(f"unknown type label {label!r}")
            norm = Fraction(norm)
            if norm >= 0:
                raise DivisorError(f"norm {norm} is not negative")
            if (norm - TYPE_Q_DISPLAY[label]) % 2 != 0:
                raise DivisorError(
                    f"norm {norm} is not congruent to {TYPE_Q_DISPLAY[label]} mod 2")
            if not isinstance(mult, int) or mult == 0:
                raise DivisorError(f"multiplicity {mult!r} is not a nonzero integer")
            self.entries[(label, norm)] = mult


def long_root_divisor() -> DivisorSpec:
    """The divisor cut out by the norm -4 roots: dual norm -4/3, long type."""
    return DivisorSpec({("1", Fraction(-4, 3)): 1})


def short_root_divisor() -> DivisorSpec:
    """The divisor cut out by the norm -2 roots: dual norm -2/3, short type."""
    return DivisorSpec({("2", Fraction(-2, 3)): 1})


def borcherds_weight(divisor: DivisorSpec, form: VVForm) -> Fraction:
    """Product weight on the ten-dimensional domain: the Eisenstein pairing.

    Each entry (label, n, mult) contributes mult times the coefficient of
    q^(-n/2) in the aggregated component for the label.
    """
    total = Fraction(0)
    for (label, norm), mult in divisor.entries.items():
        # DivisorSpec holds norm = q mod 2 with q in {0, -4/3, -2/3}, so -3/2 norm is an integer
        coeff = form.component(label).coeff_at(int(Fraction(-3, 2) * norm))
        if not coeff.is_rational():
            raise DivisorError(f"non-rational pairing coefficient for {label}")
        total += mult * coeff.as_fraction()
    return total


def ball_weight(divisor: DivisorSpec, form: VVForm) -> Fraction:
    """Weight of the restriction to the fixed four-ball: a third of the above."""
    return borcherds_weight(divisor, form) / 3


class ObstructionReport(NamedTuple):
    dims: DimensionReport

    @property
    def ok(self) -> bool:
        return self.dims.dim_cusp == 0


def obstruction_check(weight: int) -> ObstructionReport:
    """Cusp-form dimension for the aggregated conjugate action.

    A vanishing cusp space means the coefficient constraints on candidate
    inputs are exhausted by the Eisenstein series, so every divisor with
    the right congruences is realized by a product.  The 4 x 4 pair is read
    off the pairing table and compared with the display; RepSpec checks its
    own relations S^4 = 1 and (ST)^3 = S^2.  The 81-dimensional relations
    it aggregates are certified by the commands that build the Weil
    representation (weil, character, special-vectors, verify-all), not here.
    """
    from .vvmf import RepSpec, dimension_report

    agg_t, agg_s = aggregated_action(paper_module())
    return ObstructionReport(dimension_report(RepSpec(agg_t, agg_s), weight))


def lift_witness(sv: SpecialVector) -> tuple[tuple[int, ...], int]:
    """A nonvanishing certificate: the least support element and its sign."""
    x = min(sv.coeffs)
    return x, sv.coeffs[x]


class AccountingReport(NamedTuple):
    n_bases: int
    long_pairs: int
    short_pairs: int
    short_incidence: int
    weight_long: Fraction
    weight_short: Fraction
    ball_long: Fraction
    ball_short: Fraction
    short_multiplicity: int
    per_basis_weight: Fraction
    isotropic_nonzero: int
    cusps: int


def accounting_report(module: QuadraticModule, form: VVForm) -> AccountingReport:
    """Certify the combinatorial identities behind the weight bookkeeping.

    Raises AccountingError if any of these fail: the short incidence is
    uniform, every nonzero isotropic class pairs to zero with some member of
    every basis, and the per-basis weight equals six per basis.
    """
    types = classify(module)
    bases = orthogonal_bases(module)

    canon2 = [x for x in types["2"] if canonical_sign(module, x) == x]

    incidence = Counter()
    for b in bases:
        for a in b.rest:
            incidence[canonical_sign(module, a)] += 1
    if set(incidence) != set(canon2):
        raise AccountingError("short incidence misses classes")
    counts = set(incidence.values())
    if len(counts) != 1:
        raise AccountingError(f"short incidence not uniform: {sorted(counts)}")
    short_incidence = counts.pop()

    weight_long = borcherds_weight(long_root_divisor(), form)
    weight_short = borcherds_weight(short_root_divisor(), form)
    ball_long, ball_short = weight_long / 3, weight_short / 3

    members_per_basis = len(bases[0].rest)
    short_multiplicity = members_per_basis * short_incidence
    per_basis = ball_long + short_multiplicity * ball_short
    if per_basis != 6 * len(bases):
        raise AccountingError(f"per-basis weight {per_basis} is not 6 x {len(bases)}")

    iso = types["0"]
    for b in bases:
        hits = isotropic_incidence(module, b)
        if any(not v for v in hits.values()):
            raise AccountingError("an isotropic class misses a basis")
    # the isotropic classes pair up as {x, -x}: classify certified exponent 3, so
    # x != -x for x != 0, and q(-x) = q(x)

    return AccountingReport(
        n_bases=len(bases),
        # orthogonal_bases builds one basis per canonical type-1 class, or raises BasisError
        long_pairs=len(bases),
        short_pairs=len(canon2),
        short_incidence=short_incidence,
        weight_long=weight_long,
        weight_short=weight_short,
        ball_long=ball_long,
        ball_short=ball_short,
        short_multiplicity=short_multiplicity,
        per_basis_weight=per_basis,
        isotropic_nonzero=len(iso),
        cusps=len(iso) // 2,
    )
