import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triform import vvmf
from triform.exact import (
    alpha_invariant,
    mat_from_rows,
    mat_inverse,
    mat_mul,
    mat_pow,
    mat_rank,
    mat_scalar,
    phase_multiplicities,
    root_of_unity,
)
from triform.fqm import paper_module
from triform.vvmf import (
    DimensionError,
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


def alpha_st_by_the_inverse(spec: RepSpec, weight: int) -> Fraction:
    """alpha of b0^(-1) read from the phases of b0^5: the former route of dimension_report."""
    basis = vvmf._eigenspace(mat_mul(spec.s_image, spec.s_image), 1 if weight % 2 == 0 else -1)
    if not basis:
        return Fraction(0)
    b0 = mat_scalar(root_of_unity(weight, 6), mat_mul(vvmf._restrict(spec.s_image, basis),
                                                      vvmf._restrict(spec.t_image, basis)))
    return alpha_invariant(phase_multiplicities(mat_pow(b0, 5), 6))


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
