import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from triform import fqm
from triform.exact import mat_det
from triform.fqm import (
    PAIRING_COLUMNS,
    REFERENCE_TABLE,
    TYPE_LABELS,
    TYPE_PATTERNS,
    BasisError,
    OrthoBasis,
    PairingConventionError,
    QuadraticModule,
    ReflectionError,
    apply_matrix,
    canonical_sign,
    central_negation,
    classify,
    element_str,
    expand_patterns,
    gram3,
    involutive_reflections,
    isotropic_incidence,
    module_table,
    orthogonal_bases,
    orthogonal_group,
    paper_module,
    pairing_table,
    reflect,
    type_of,
)
from triform.lattice import alt_spec, discriminant_form

M = paper_module()
ALT = discriminant_form(alt_spec()).module
BOTH = pytest.mark.parametrize("module", [M, ALT], ids=["paper", "alt-decomposition"])


# -- the Fraction oracle: every integer table is checked against q and b


def _q3(module: QuadraticModule, x) -> int:
    """Integer quadratic form Q(x) = (3/2) q(x) mod 3."""
    v = (Fraction(3, 2) * module.q(x)) % 3
    if v.denominator != 1:
        raise ReflectionError(f"q({x}) = {module.q(x)} is not a third-integer")
    return int(v)


def _b3(module: QuadraticModule, x, y) -> int:
    """Integer pairing B(x, y) = 3 b(x, y) mod 3; polarization of _q3."""
    v = (3 * module.b(x, y)) % 3
    if v.denominator != 1:
        raise ReflectionError("pairing is not third-integer")
    return int(v)


def _type_oracle(module, x) -> str:
    if not any(x):
        return "00"
    return {Fraction(0): "0", Fraction(2, 3): "1", Fraction(4, 3): "2"}[module.q(x)]


def _matrices(group) -> list:
    """The maps of O(q) as F_3 matrices, in row order: column j is the image of g_j."""
    t = module_table(group.module)
    cols = t.digits[group.perm[:, t.unit]].transpose(0, 2, 1).tolist()
    return [tuple(map(tuple, m)) for m in cols]


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
    assert 1 <= len(group.generator_rows) <= 6


def test_orthogonal_group_closure_seeded():
    group = orthogonal_group(M)
    rng = random.Random(5)
    elems = _matrices(group)
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
        g = rng.choice(_matrices(group))
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


# q(g_i) + 2 and b(g_i, g_j) + 1 present the paper module by unreduced data
UNREDUCED = QuadraticModule(M.orders, tuple(v + 2 for v in M.gen_q),
                            tuple(tuple(v + 1 for v in row) for row in M.gen_b))


@pytest.mark.parametrize("module", [M, ALT, UNREDUCED],
                         ids=["paper", "alt-decomposition", "unreduced"])
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


@BOTH
def test_module_table_matches_the_fraction_forms(module):
    t = module_table(module)
    elems = module.elements()
    assert t.elements == elems
    assert [t.index[x] for x in elems] == list(range(len(elems)))
    assert t.digits.tolist() == [list(x) for x in elems]
    assert [elems[i] for i in t.neg] == [module.neg(x) for x in elems]
    assert [[elems[k] for k in row] for row in t.add] == [
        [module.add(x, y) for y in elems] for x in elems]
    assert [TYPE_LABELS[k] for k in t.kind] == [_type_oracle(module, x) for x in elems]
    assert [elems[i] for i in t.unit] == [
        tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert module_table(module) is t  # memoized


@BOTH
def test_classify_and_type_of_match_the_fraction_oracle(module):
    groups: dict = {}
    for x in module.elements():
        groups.setdefault(_type_oracle(module, x), []).append(x)
    assert classify(module) == {label: tuple(groups[label])
                                for label in TYPE_LABELS if label in groups}
    assert list(classify(module)) == [label for label in TYPE_LABELS if label in groups]
    assert all(type_of(module, x) == _type_oracle(module, x) for x in module.elements())


@BOTH
def test_pairing_table_matches_a_pair_by_pair_count(module):
    types = classify(module)
    expected = {}
    for ulabel, us in types.items():
        for vlabel, vs in types.items():
            triples = {tuple(sum(1 for v in vs if module.b(u, v) == c) for c in PAIRING_COLUMNS)
                       for u in us}
            assert len(triples) == 1
            expected[(ulabel, vlabel)] = triples.pop()
    assert pairing_table(module) == expected


def _bases_oracle(module):
    types = classify(module)
    bases = []
    for alpha0 in types["1"]:
        if canonical_sign(module, alpha0) != alpha0:
            continue
        candidates = sorted({canonical_sign(module, v) for v in types["2"]
                             if module.b(v, alpha0) == 0})
        completions = [t for t in itertools.combinations(candidates, 3)
                       if all(module.b(t[i], t[j]) == 0 for i in range(3) for j in range(i))]
        assert len(completions) == 1
        assert mat_det((alpha0,) + completions[0]) % 3 != 0
        bases.append(OrthoBasis(alpha0, completions[0]))
    return tuple(bases)


@BOTH
def test_bases_and_incidence_match_a_pair_by_pair_search(module):
    bases = orthogonal_bases(module)
    assert bases == _bases_oracle(module)
    for basis in bases:
        assert isotropic_incidence(module, basis) == {
            x: tuple(i for i, a in enumerate(basis.vectors) if module.b(x, a) == 0)
            for x in classify(module)["0"]}


@BOTH
def test_reflection_matrices_match_the_fraction_formula(module):
    for alpha in module.elements():
        qa = _q3(module, alpha)
        if qa == 0:
            continue
        cols = []
        for j in range(4):
            e = tuple(int(i == j) for i in range(4))
            c = _b3(module, e, alpha) * qa % 3
            cols.append(tuple((e[i] - c * alpha[i]) % 3 for i in range(4)))
        assert reflect(module, alpha).matrix == tuple(zip(*cols))


def _matrix_keys(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(len(mats), -1) @ 3 ** np.arange(16)


@BOTH
def test_group_is_the_closure_of_the_involutive_reflections(module):
    """Cartan-Dieudonne over F_3: the 30 reflections generate O(q)."""
    group = orthogonal_group(module)
    alphas = involutive_reflections(group)
    assert len(alphas) == 30
    gens = np.array([reflect(module, a).matrix for a in alphas])
    frontier = np.eye(4, dtype=np.int64)[None]
    seen = set(_matrix_keys(frontier).tolist())
    while len(frontier):
        products = (frontier[:, None] @ gens[None]).reshape(-1, 4, 4) % 3
        keys, first = np.unique(_matrix_keys(products), return_index=True)
        fresh = [k not in seen for k in keys.tolist()]
        frontier = products[first[fresh]]
        seen.update(keys[fresh].tolist())
    assert seen == set(_matrix_keys(np.array(_matrices(group))).tolist())
    assert len(seen) == group.order == 1440


def test_group_permutations_agree_with_the_matrices():
    group = orthogonal_group(M)
    elems = M.elements()
    assert group.perm.dtype == np.uint8 and group.perm.shape == (1440, 81)
    matrices = _matrices(group)
    for k in random.Random(7).sample(range(group.order), 40):
        assert [elems[i] for i in group.perm[k]] == [apply_matrix(matrices[k], x) for x in elems]
    assert group.keys.tolist() == sorted(group.keys.tolist())
    assert [group.locate(group.perm[k, module_table(M).unit][None, :])[0]
            for k in range(group.order)] == list(range(group.order))


# -- negative controls


def _perturbed_table(monkeypatch, module, relabel: dict):
    """Make every integer-table consumer see `module` with some types relabeled."""
    t = module_table(module)
    kind = t.kind.copy()
    for x, label in relabel.items():
        kind[t.index[x]] = TYPE_LABELS.index(label)
    fake, original = dataclasses.replace(t, kind=kind), fqm.module_table
    monkeypatch.setattr(fqm, "module_table", lambda m: fake if m == module else original(m))


def test_a_representative_dependent_split_raises(monkeypatch):
    # move one type-1 element into type 2: the type-2 rows now disagree
    _perturbed_table(monkeypatch, M, {(1, 0, 0, 0): "2"})
    with pytest.raises(PairingConventionError, match="representative"):
        pairing_table(M)


def test_an_ambiguous_completion_raises(monkeypatch):
    # calling the class of 0110 short gives 1000 a second completion 0001, 0110, 0120
    relabel = {x: "2" for x in expand_patterns([(0, 1, 1, 0)])}
    _perturbed_table(monkeypatch, M, relabel)
    with pytest.raises(BasisError, match="2 orthogonal completions"):
        orthogonal_bases(M)
