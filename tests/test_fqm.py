import random
from fractions import Fraction

import pytest

from triform.fqm import (
    REFERENCE_TABLE,
    TYPE_PATTERNS,
    BasisError,
    OrthoBasis,
    PairingConventionError,
    QuadraticModule,
    ReflectionError,
    _b3,
    _q3,
    apply_matrix,
    canonical_sign,
    central_negation,
    classify,
    element_str,
    expand_patterns,
    gram3,
    involutive_reflections,
    isotropic_incidence,
    orthogonal_bases,
    orthogonal_group,
    paper_module,
    pairing_table,
    reflect,
    type_of,
)
from triform.lattice import alt_spec, discriminant_form

M = paper_module()

# the frozen 16-triple pairing-count table (m_0, m_1, m_2)
EXPECTED_TABLE = {
    ("00", "00"): (1, 0, 0),
    ("00", "0"): (20, 0, 0),
    ("00", "1"): (30, 0, 0),
    ("00", "2"): (30, 0, 0),
    ("0", "00"): (1, 0, 0),
    ("0", "0"): (2, 9, 9),
    ("0", "1"): (12, 9, 9),
    ("0", "2"): (12, 9, 9),
    ("1", "00"): (1, 0, 0),
    ("1", "0"): (8, 6, 6),
    ("1", "1"): (12, 9, 9),
    ("1", "2"): (6, 12, 12),
    ("2", "00"): (1, 0, 0),
    ("2", "0"): (8, 6, 6),
    ("2", "1"): (6, 12, 12),
    ("2", "2"): (12, 9, 9),
}


def test_quadratic_values():
    assert M.q((1, 0, 0, 0)) == Fraction(2, 3)
    assert M.q((0, 1, 0, 0)) == Fraction(4, 3)
    assert M.q((1, 1, 1, 1)) == Fraction(2, 3)  # -4/3 mod 2
    assert M.q((1, 1, 0, 0)) == 0
    assert M.b((1, 0, 0, 0), (0, 1, 0, 0)) == 0
    assert M.b((1, 0, 0, 0), (1, 0, 0, 0)) == Fraction(2, 3)
    assert M.b((0, 1, 0, 0), (0, 1, 0, 0)) == Fraction(1, 3)


def test_type_sizes():
    types = classify(M)
    assert {k: len(v) for k, v in types.items()} == {"00": 1, "0": 20, "1": 30, "2": 30}
    assert type_of(M, (0, 0, 0, 0)) == "00"
    assert type_of(M, (1, 0, 0, 0)) == "1"
    assert type_of(M, (0, 1, 0, 0)) == "2"
    assert type_of(M, (1, 1, 0, 0)) == "0"


def test_q_histogram():
    assert M.q_histogram() == {Fraction(0): 21, Fraction(2, 3): 30, Fraction(4, 3): 30}


def test_type_patterns_expand_to_the_classification():
    types = classify(M)
    for label, patterns in TYPE_PATTERNS.items():
        assert expand_patterns(patterns) == frozenset(types[label]), label


def test_pairing_table_matches_frozen_values():
    assert pairing_table(M) == EXPECTED_TABLE
    assert REFERENCE_TABLE == EXPECTED_TABLE


def test_pairing_table_invariants():
    types = classify(M)
    table = pairing_table(M)
    sizes = {k: len(v) for k, v in types.items()}
    for (u, v), (m0, m1, m2) in table.items():
        assert m0 + m1 + m2 == sizes[v]
        assert m1 == m2  # v -> -v swaps the two nonzero pairing values
    for u in sizes:
        for v in sizes:
            # b is symmetric, so pair counts agree both ways
            assert sizes[u] * table[(u, v)][1] == sizes[v] * table[(v, u)][1]
            assert sizes[u] * table[(u, v)][0] == sizes[v] * table[(v, u)][0]


def test_reflection_basics():
    alpha = (1, 0, 0, 0)
    r = reflect(M, alpha)
    assert r(alpha) == M.neg(alpha)
    for x in M.elements():
        assert r(r(x)) == x
        assert M.q(r(x)) == M.q(x)
        if M.b(x, alpha) == 0:
            assert r(x) == x


def test_reflection_rejects_isotropic():
    with pytest.raises(ValueError):
        reflect(M, (1, 1, 0, 0))


def test_reflection_preserves_pairing_seeded():
    rng = random.Random(99)
    nonisotropic = [x for x in M.elements() if type_of(M, x) in ("1", "2")]
    elems = M.elements()
    for _ in range(25):
        r = reflect(M, rng.choice(nonisotropic))
        x, y = rng.choice(elems), rng.choice(elems)
        assert M.b(r(x), r(y)) == M.b(x, y)
        assert M.q(M.add(x, y)) == (M.q(x) + M.q(y) + 2 * M.b(x, y)) % 2


def test_orthogonal_group_structure():
    group = orthogonal_group(M)
    assert group.order == 1440
    assert sorted(len(o) for o in group.orbits) == [20, 30, 30]
    assert central_negation(group)
    refl = involutive_reflections(group)
    assert len(refl) == 30
    # the generating set actually generates (enumeration already closed it)
    assert 1 <= len(group.generators) <= 6


def test_orthogonal_group_closure_seeded():
    group = orthogonal_group(M)
    rng = random.Random(5)
    elems = group.elements
    elemset = set(elems)
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        prod = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(4)) % 3 for j in range(4))
            for i in range(4)
        )
        assert prod in elemset


def test_orthogonal_group_preserves_q_seeded():
    group = orthogonal_group(M)
    rng = random.Random(31)
    elems = M.elements()
    for _ in range(60):
        g = rng.choice(group.elements)
        x = rng.choice(elems)
        assert M.q(apply_matrix(g, x)) == M.q(x)


def test_fifteen_orthogonal_bases():
    bases = orthogonal_bases(M)
    assert len(bases) == 15
    for basis in bases:
        assert type_of(M, basis.alpha0) == "1"
        vecs = basis.vectors
        assert all(type_of(M, v) == "2" for v in basis.rest)
        for i in range(4):
            for j in range(i + 1, 4):
                assert M.b(vecs[i], vecs[j]) == 0
        assert all(canonical_sign(M, v) == v for v in vecs)
        assert basis.rest == tuple(sorted(basis.rest))


def test_standard_basis_is_among_them():
    bases = orthogonal_bases(M)
    standard = OrthoBasis((1, 0, 0, 0), ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)))
    by_alpha0 = {b.alpha0: b for b in bases}
    got = by_alpha0[(1, 0, 0, 0)]
    assert set(got.rest) == set(standard.rest)


def test_each_negative_class_in_three_bases():
    bases = orthogonal_bases(M)
    counts: dict = {}
    for basis in bases:
        for v in basis.rest:
            counts[v] = counts.get(v, 0) + 1
    assert len(counts) == 15
    assert set(counts.values()) == {3}


def test_isotropic_incidence_covers_everything():
    for basis in orthogonal_bases(M):
        hits = isotropic_incidence(M, basis)
        assert len(hits) == 20
        assert all(len(h) >= 1 for h in hits.values())


def test_canonicalization_and_strings():
    assert canonical_sign(M, (2, 0, 0, 0)) == (1, 0, 0, 0)
    assert canonical_sign(M, (1, 2, 0, 0)) == (1, 2, 0, 0)  # -(1,2,0,0) = (2,1,0,0)
    assert element_str((1, 0, 2, 1)) == "1021"


@pytest.mark.parametrize("module", [M, discriminant_form(alt_spec()).module],
                         ids=["paper", "alt-decomposition"])
def test_gram3_matches_the_fraction_forms(module):
    q, b = gram3(module)
    elems = module.elements()
    assert q.tolist() == [_q3(module, x) for x in elems]
    assert b.tolist() == [[_b3(module, x, y) for y in elems] for x in elems]


def test_gram3_rejects_what_the_fraction_forms_reject():
    # on Z/2 with q(g) = 1/2 neither (3/2) q nor 3 b is an integer
    half = QuadraticModule((2,), (Fraction(1, 2),), ((Fraction(1, 2),),))
    with pytest.raises(ReflectionError):
        _b3(half, (1,), (1,))
    with pytest.raises(ReflectionError):
        gram3(half)
