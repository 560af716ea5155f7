"""Product weights, the obstruction dimension, and the basis accounting."""

from fractions import Fraction

import pytest

from triform.borcherds import (
    AccountingError,
    DivisorError,
    DivisorSpec,
    accounting_report,
    ball_weight,
    borcherds_weight,
    lift_witness,
    long_root_divisor,
    obstruction_check,
    short_root_divisor,
)
from triform.cli import _record_json
from triform.fqm import paper_module
from triform.qseries import obstruction_eisenstein
from triform.weil import build_weil, special_vectors


@pytest.fixture(scope="module")
def form():
    return obstruction_eisenstein(12)


@pytest.fixture(scope="module")
def rep():
    return build_weil(paper_module())


def test_divisor_validation():
    with pytest.raises(DivisorError):
        DivisorSpec({("1", Fraction(4, 3)): 1})          # positive norm
    with pytest.raises(DivisorError):
        DivisorSpec({("0", 0): 1})                       # zero norm
    with pytest.raises(DivisorError):
        DivisorSpec({("1", Fraction(-2, 3)): 1})         # wrong congruence
    with pytest.raises(DivisorError):
        DivisorSpec({("3", Fraction(-2, 3)): 1})         # no such type
    with pytest.raises(DivisorError):
        DivisorSpec({("2", Fraction(-2, 3)): 0})         # zero multiplicity
    d = DivisorSpec({("2", Fraction(-8, 3)): 2})         # -2/3 - 2 is fine
    assert d.entries[("2", Fraction(-8, 3))] == 2


def test_root_divisor_weights(form):
    assert borcherds_weight(long_root_divisor(), form) == 135
    assert borcherds_weight(short_root_divisor(), form) == 15
    assert ball_weight(long_root_divisor(), form) == 45
    assert ball_weight(short_root_divisor(), form) == 5


def test_weight_is_linear_in_the_divisor(form):
    d = DivisorSpec({("1", Fraction(-4, 3)): 2, ("2", Fraction(-2, 3)): 3})
    assert borcherds_weight(d, form) == 2 * 135 + 3 * 15
    neg = DivisorSpec({("2", Fraction(-2, 3)): -1})
    assert borcherds_weight(neg, form) == -15


def test_deeper_divisor_reads_the_expansion(form):
    # coefficient of q^2 in the isotropic component: divisor sum over rm = 6
    d = DivisorSpec({("0", -4): 1})
    w = borcherds_weight(d, form)
    assert w == form.component("0").coeff_at(6).as_fraction()
    assert w != 0


def test_obstruction_space_is_eisenstein_only():
    report = obstruction_check(4)
    assert report.dims.dim_modular == 2
    assert report.dims.dim_eisenstein == 2
    assert report.dims.dim_cusp == 0
    assert report.ok


def test_lift_witness_on_the_standard_basis(rep):
    svs = special_vectors(rep)
    standard = next(sv for sv in svs if sv.basis.alpha0 == (1, 0, 0, 0))
    element, coeff = lift_witness(standard)
    assert element == (1, 1, 1, 1)
    assert coeff == -1


def test_every_special_vector_has_a_witness(rep):
    for sv in special_vectors(rep):
        element, coeff = lift_witness(sv)
        assert coeff in (-1, 1)
        assert sv.coeffs[element] == coeff
        assert all(element <= x for x in sv.coeffs)


def test_accounting_report(form):
    report = accounting_report(paper_module(), form)
    assert report.n_bases == 15
    assert report.long_pairs == 15
    assert report.short_pairs == 15
    assert report.short_incidence == 3
    assert report.weight_long == 135
    assert report.weight_short == 15
    assert report.ball_long == 45
    assert report.ball_short == 5
    assert report.short_multiplicity == 9
    assert report.per_basis_weight == 90
    assert report.per_basis_weight == report.ball_long + 9 * report.ball_short
    assert report.per_basis_weight == 6 * report.n_bases
    assert report.isotropic_nonzero == 20
    assert report.cusps == 10


def test_accounting_json_round_trip(form):
    j = _record_json(accounting_report(paper_module(), form))
    assert j["bases"] == 15 and "n_bases" not in j
    assert j["per_basis_weight"] == "90"
    assert j["cusps"] == 10
    assert j["weight_long"] == "135"


def test_accounting_rejects_a_wrong_form(form):
    # scaling the form breaks the per-basis identity but not the combinatorics
    doubled = type(form)({k: v.scale(2) for k, v in form.components.items()}, form.weights)
    with pytest.raises(AccountingError) as info:
        accounting_report(paper_module(), doubled)
    assert str(info.value) == "per-basis weight 180 is not 6 x 15"  # 90 + 9 * 10
