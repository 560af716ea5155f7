import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triform.exact import (
    alpha_invariant,
    mat_eq,
    mat_from_rows,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_nullspace,
    mat_pow,
    mat_rank,
    mat_scalar,
    mat_solve,
    mat_sub,
    mat_vec,
    phase_multiplicities,
    root_of_unity,
)
from triform.fqm import paper_module
from triform.vvmf import (
    DimensionError,
    DimensionReport,
    RepSpec,
    dimension_report,
)
from triform.weil import aggregated_dual, build_weil


def _paper_repspec() -> RepSpec:
    agg_t, agg_s = aggregated_dual(build_weil(paper_module()))
    return RepSpec(agg_t, agg_s)


def trivial_rep() -> RepSpec:
    """The trivial character: its dimensions are those of M_k(SL(2, Z))."""
    return RepSpec(((1,),), ((1,),))


def test_trivial_rep_reproduces_classical_dimensions():
    spec = trivial_rep()
    expected_total = {4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1}
    for k, want in expected_total.items():
        rep = dimension_report(spec, k)
        assert rep.dim_modular == want
        assert rep.dim_eisenstein == 1
        assert rep.dim_cusp == want - 1
    for k in (3, 5, 7, 9, 11, 13):
        rep = dimension_report(spec, k)
        assert (rep.dim_modular, rep.dim_eisenstein, rep.dim_cusp) == (0, 0, 0)
        assert rep.dim_plus == 0


def test_weight_below_three_rejected():
    with pytest.raises(DimensionError):
        dimension_report(trivial_rep(), 2)
    with pytest.raises(DimensionError):
        dimension_report(trivial_rep(), 0)


def test_invalid_generators_rejected():
    with pytest.raises(DimensionError):
        RepSpec(((1,),), ((2,),))  # S^4 = 16
    with pytest.raises(DimensionError):
        RepSpec(((1, 0), (0, 1)), ((0, 1), (1, 0)))  # (ST)^3 != S^2


def test_infinite_t_order_rejected():
    # the defining 2-dimensional representation: T has infinite order
    # (odd weight keeps the eigenspace of S^2 = -1 nonzero)
    spec = RepSpec(((1, 1), (0, 1)), ((0, -1), (1, 0)))
    with pytest.raises(DimensionError):
        dimension_report(spec, 5)
    # at even weight V+ = 0, so T's infinite order lives on V- only
    assert dimension_report(spec, 4) == DimensionReport(4, 0, 0, 0, 0, 0, 0, 0)


def test_paper_rep_weight_four():
    rep = dimension_report(_paper_repspec(), 4)
    assert rep.dim_plus == 4
    assert rep.alpha_s == 1
    assert rep.alpha_st == Fraction(4, 3)
    assert rep.alpha_t == 1
    assert rep.dim_modular == 2
    assert rep.dim_eisenstein == 2
    assert rep.dim_cusp == 0


def test_paper_rep_odd_weights_vanish():
    spec = _paper_repspec()
    for k in (3, 5, 7):
        rep = dimension_report(spec, k)
        assert rep.dim_plus == 0
        assert rep.dim_modular == 0


def test_paper_rep_other_weights_are_consistent():
    spec = _paper_repspec()
    for k in (6, 8, 10, 12):
        rep = dimension_report(spec, k)
        assert rep.dim_modular >= rep.dim_eisenstein
        assert rep.dim_cusp == rep.dim_modular - rep.dim_eisenstein
        assert rep.dim_modular >= 0


def test_dimension_is_conjugation_invariant_seeded():
    agg_t, agg_s = aggregated_dual(build_weil(paper_module()))
    rng = random.Random(12)
    base = dimension_report(RepSpec(agg_t, agg_s), 4)
    for _ in range(3):
        while True:
            p = mat_from_rows([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if mat_rank(p) == 4:
                break
        pinv = mat_inverse(p)
        t2 = mat_mul(pinv, mat_mul(agg_t, p))
        s2 = mat_mul(pinv, mat_mul(agg_s, p))
        rep = dimension_report(RepSpec(t2, s2), 4)
        assert rep.dim_modular == base.dim_modular
        assert rep.dim_eisenstein == base.dim_eisenstein
        assert rep.dim_cusp == base.dim_cusp
        assert (rep.alpha_s, rep.alpha_st, rep.alpha_t) == (
            base.alpha_s, base.alpha_st, base.alpha_t)


PAPER = _paper_repspec()
PAPER_REPORTS = {k: dimension_report(PAPER, k) for k in (3, 4, 5, 6, 8)}

small_matrices = st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                          min_size=4, max_size=4)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_matrices.filter(lambda rows: mat_rank(mat_from_rows(rows)) == 4))
def test_dimension_report_is_invariant_under_a_change_of_basis(rows):
    """(P T P^-1, P S P^-1) has the aggregated pair's report at every weight."""
    p = mat_from_rows(rows)
    pinv = mat_inverse(p)
    spec = RepSpec(mat_mul(p, mat_mul(PAPER.t_image, pinv)),
                   mat_mul(p, mat_mul(PAPER.s_image, pinv)))
    for k, report in PAPER_REPORTS.items():
        assert dimension_report(spec, k) == report


def _eigenspace(matrix, sign: int):
    n = len(matrix)
    shifted = mat_sub(matrix, mat_scalar(sign, mat_identity(n)))
    return mat_nullspace(shifted)


def _restrict(matrix, basis):
    """The matrix of S or T on an eigenspace of S^2, in the given basis."""
    bt = tuple(zip(*basis))  # basis vectors as columns
    cols = [mat_solve(bt, mat_vec(matrix, b)) for b in basis]
    return tuple(zip(*cols))


def alpha_st_by_the_inverse(spec: RepSpec, weight: int) -> Fraction:
    """alpha of b0^(-1) read from the phases of b0^5: the former route of dimension_report."""
    basis = _eigenspace(mat_mul(spec.s_image, spec.s_image), 1 if weight % 2 == 0 else -1)
    if not basis:
        return Fraction(0)
    b0 = mat_scalar(root_of_unity(weight, 6), mat_mul(_restrict(spec.s_image, basis),
                                                      _restrict(spec.t_image, basis)))
    return alpha_invariant(phase_multiplicities(mat_pow(b0, 5), 6))


def dimension_report_by_restriction(spec: RepSpec, weight: int) -> DimensionReport:
    """The former route: a basis of V+, S and T restricted to it by solves."""
    basis = _eigenspace(mat_mul(spec.s_image, spec.s_image), 1 if weight % 2 == 0 else -1)
    d = len(basis)
    if d == 0:
        return DimensionReport(weight, 0, Fraction(0), Fraction(0), Fraction(0), 0, 0, 0)
    s_r = _restrict(spec.s_image, basis)
    t_r = _restrict(spec.t_image, basis)
    alpha_s = alpha_invariant(phase_multiplicities(
        mat_scalar(root_of_unity(weight, 4), s_r), 4))
    b0 = mat_scalar(root_of_unity(weight, 6), mat_mul(s_r, t_r))
    b0_mults = phase_multiplicities(b0, 6)
    alpha_st = d - b0_mults.get(Fraction(0), 0) - alpha_invariant(b0_mults)
    t_order = next(m for m in range(1, 61) if mat_eq(mat_pow(t_r, m), mat_identity(d)))
    alpha_t = alpha_invariant(phase_multiplicities(t_r, t_order))
    total = d + Fraction(d * weight, 12) - alpha_s - alpha_st - alpha_t
    assert total.denominator == 1 and total >= 0
    eis = len(_eigenspace(t_r, 1))
    return DimensionReport(weight, d, alpha_s, alpha_st, alpha_t,
                           int(total), eis, int(total) - eis)


def _paper_pair_plus_a_character() -> RepSpec:
    """The aggregated pair (+) the character S -> -i, T -> zeta_12.

    V+ has d = 4 of n = 5 at even weight and d = 1 at odd weight.
    """
    zeros = (0,) * 4
    t = tuple(row + (0,) for row in PAPER.t_image) + (zeros + (root_of_unity(1, 12),),)
    s = tuple(row + (0,) for row in PAPER.s_image) + (zeros + (root_of_unity(3, 4),),)
    return RepSpec(t, s)


def test_dimension_report_matches_the_restriction_route():
    spec = _paper_pair_plus_a_character()
    rng = random.Random(17)
    while True:
        p = mat_from_rows([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
        if mat_rank(p) == 5:
            break
    pinv = mat_inverse(p)
    conjugate = RepSpec(mat_mul(p, mat_mul(spec.t_image, pinv)),
                        mat_mul(p, mat_mul(spec.s_image, pinv)))
    for k in range(3, 13):
        report = dimension_report(spec, k)
        assert report == dimension_report_by_restriction(spec, k)
        assert dimension_report(conjugate, k) == report
        assert dimension_report_by_restriction(conjugate, k) == report
    pinned = {4: (4, 1, Fraction(4, 3), 1, 2, 2, 0),
              5: (1, 0, Fraction(1, 3), Fraction(1, 12), 1, 0, 1),
              12: (4, 1, 1, 1, 5, 2, 3)}
    for k, fields in pinned.items():
        r = dimension_report(spec, k)
        assert (r.dim_plus, r.alpha_s, r.alpha_st, r.alpha_t,
                r.dim_modular, r.dim_eisenstein, r.dim_cusp) == fields


def test_alpha_st_matches_the_inverse_power_route():
    for k, report in PAPER_REPORTS.items():
        assert report.alpha_st == alpha_st_by_the_inverse(PAPER, k)
    for k in (4, 6, 8, 12, 14):
        assert (dimension_report(trivial_rep(), k).alpha_st
                == alpha_st_by_the_inverse(trivial_rep(), k))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(small_matrices.filter(lambda rows: mat_rank(mat_from_rows(rows)) == 4))
def test_alpha_st_matches_the_inverse_power_route_after_a_change_of_basis(rows):
    p = mat_from_rows(rows)
    pinv = mat_inverse(p)
    spec = RepSpec(mat_mul(p, mat_mul(PAPER.t_image, pinv)),
                   mat_mul(p, mat_mul(PAPER.s_image, pinv)))
    for k in PAPER_REPORTS:
        assert dimension_report(spec, k).alpha_st == alpha_st_by_the_inverse(spec, k)


def test_dimension_report_fields_and_json():
    report = dimension_report(_paper_repspec(), 4)
    assert report.dim_modular == 2
    assert report.dim_eisenstein == 2
    assert report.dim_cusp == 0
    data = report.to_json()
    assert data["alpha_st"] == "4/3"
    assert data["dim_modular"] == 2
