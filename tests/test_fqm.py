import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def add(module, x, y):
    """x + y in the module, digit by digit: the oracle for the add table."""
    return tuple((a + c) % m for a, c, m in zip(x, y, module.orders))


def apply_matrix(matrix, x):
    """The F_3-linear map `matrix` at the digit tuple x."""
    return tuple(sum(m * xj for m, xj in zip(row, x)) % 3 for row in matrix)


def _matrices(group) -> list:
    """The maps of O(q) as F_3 matrices, in row order: column j is the image of g_j."""
    t = module_table(group.module)
    return [tuple(zip(*(t.elements[row[u]] for u in t.unit))) for row in group.perm]


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
    matrix = reflect(M, alpha).matrix

    def r(x):
        return apply_matrix(matrix, x)

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
        matrix = reflect(M, rng.choice(nonisotropic)).matrix
        x, y = rng.choice(elems), rng.choice(elems)
        assert M.b(apply_matrix(matrix, x), apply_matrix(matrix, y)) == M.b(x, y)
        assert M.q(add(M, x, y)) == (M.q(x) + M.q(y) + 2 * M.b(x, y)) % 2


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
    assert list(q) == [_q3(module, x) for x in elems]
    assert [list(row) for row in b] == [[_b3(module, x, y) for y in elems] for x in elems]


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
    assert all(type(v) is bytes for v in (t.q, *t.b, t.neg, *t.add, t.kind))
    assert [elems[i] for i in t.neg] == [module.neg(x) for x in elems]
    assert [[elems[k] for k in row] for row in t.add] == [
        [add(module, x, y) for y in elems] for x in elems]
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
        bases.append(OrthoBasis(alpha0, completions[0]))
    return tuple(bases)


@BOTH
def test_every_orthogonal_basis_spans(module):
    # orthogonal_bases proves rather than checks that the four vectors span
    bases = orthogonal_bases(module)
    assert len(bases) == 15
    assert all(mat_det(basis.vectors) % 3 != 0 for basis in bases)


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
    assert len(group.perm) == 1440
    assert all(type(row) is bytes and len(row) == 81 for row in group.perm)
    matrices = _matrices(group)
    for k in random.Random(7).sample(range(group.order), 40):
        assert [elems[i] for i in group.perm[k]] == [apply_matrix(matrices[k], x) for x in elems]
    keys = [tuple(row[u] for u in module_table(M).unit) for row in group.perm]
    assert keys == sorted(keys) == list(group.position)
    assert [group.locate(key) for key in keys] == list(range(group.order))


# -- the former backtracking enumerator of O(q), as the oracle for the reflection closure


def _locate(keys: np.ndarray, images: np.ndarray, n: int) -> np.ndarray:
    """Positions in `keys` of the rows of `images` (m, r) as base-n numbers, -1 if absent."""
    k = images.astype(np.int64) @ n ** np.arange(images.shape[-1] - 1, -1, -1)
    pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
    return np.where(keys[pos] == k, pos, -1)


def backtracking_group(module):
    """(perm, generator images, generator_rows, orbits) of O(q) by backtracking.

    Level k extends each partial map by every index c with Q(c) = Q(g_k) and
    B(image of g_i, c) = B(g_i, g_k) for i < k, in index order, so the maps
    come out sorted by their generator images.
    """
    t = module_table(module)
    n = len(t.elements)
    q = np.frombuffer(t.q, dtype=np.uint8)
    b = np.frombuffer(b"".join(t.b), dtype=np.uint8).reshape(n, n)
    add = np.frombuffer(b"".join(t.add), dtype=np.uint8).reshape(n, n)
    neg = np.frombuffer(t.neg, dtype=np.uint8)
    unit = np.array(t.unit)
    images = np.zeros((1, 0), dtype=np.intp)
    for k, gk in enumerate(unit):
        ok = np.broadcast_to(q == q[gk], (len(images), n))
        for i in range(k):
            ok = ok & (b[images[:, i]] == b[unit[i], gk])
        parent, cand = np.nonzero(ok)
        images = np.column_stack([images[parent], cand])

    # g(x) = sum_i x_i g(g_i), one digit at a time through the add table
    perm = np.zeros((len(images), 1), dtype=np.uint8)
    for i in range(len(unit)):
        img = images[:, i].astype(np.uint8)
        multiples = np.stack([np.zeros_like(img), img, neg[img]], axis=1)
        perm = add[perm[:, :, None], multiples[:, None, :]].reshape(len(images), -1)

    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    orbits = []
    for i in range(n):
        if not seen[i]:
            orbit = np.flatnonzero(np.bincount(perm[:, i], minlength=n))
            seen[orbit] = True
            orbits.append(tuple(t.elements[j] for j in orbit))

    # each row, in key order, that the group the earlier rows generate misses
    keys = images.astype(np.int64) @ n ** np.arange(len(unit) - 1, -1, -1)
    rows: list[int] = []
    closure = np.zeros(len(perm), dtype=bool)
    closure[_locate(keys, unit[None, :], n)[0]] = True
    for k in range(len(perm)):
        if closure[k]:
            continue
        rows.append(k)
        frontier = np.flatnonzero(closure)
        while frontier.size:
            found = np.concatenate([_locate(keys, perm[frontier[:, None], perm[h, unit]], n)
                                    for h in rows])
            assert (found >= 0).all()
            frontier = np.flatnonzero(np.bincount(found[~closure[found]], minlength=len(perm)))
            closure[frontier] = True
        if closure.all():
            break
    return perm, images, tuple(rows), tuple(orbits)


@st.composite
def exponent3_modules(draw, max_rank=4):
    """(F_3)^r, r = 1..max_rank, with a random symmetric F_3 pairing, often off
    the diagonal: b(g_i, g_j) = G_ij / 3 shifted by -1, 0 or 1, and q(g_i) the
    lift of b(g_i, g_i) with 9 q(g_i) in 2Z, shifted by -2, 0 or 2."""
    r = draw(st.integers(1, max_rank))
    gram = [[0] * r for _ in range(r)]
    b = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            gram[i][j] = gram[j][i] = draw(st.integers(0, 2))
            b[i][j] = b[j][i] = Fraction(gram[i][j], 3) + draw(st.integers(-1, 1))
    q = []
    for i in range(r):
        v = Fraction(gram[i][i], 3) + (gram[i][i] % 2)  # 9 v = 3 G_ii + 9 (G_ii mod 2) is even
        q.append(v + 2 * draw(st.integers(-1, 1)))
    return QuadraticModule((3,) * r, tuple(q), tuple(map(tuple, b)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exponent3_modules())
@example(M)
@example(ALT)
def test_tables_and_group_of_random_pairings_match_the_oracles(module):
    t = module_table(module)
    elems = module.elements()
    assert list(t.q) == [_q3(module, x) for x in elems]
    assert [list(row) for row in t.b] == [[_b3(module, x, y) for y in elems] for x in elems]
    assert [elems[i] for i in t.neg] == [module.neg(x) for x in elems]
    assert [[elems[k] for k in row] for row in t.add] == [
        [add(module, x, y) for y in elems] for x in elems]
    assert [TYPE_LABELS[k] for k in t.kind] == [_type_oracle(module, x) for x in elems]
    if mat_det([[3 * v for v in row] for row in module.gen_b]) % 3 == 0:
        with pytest.raises(ReflectionError, match="degenerate"):
            orthogonal_group(module)
        return
    group = orthogonal_group(module)
    perm, images, rows, orbits = backtracking_group(module)
    assert group.perm == tuple(map(bytes, perm))
    assert list(group.position) == [tuple(x) for x in images.tolist()]
    assert group.generator_rows == rows
    assert group.orbits == orbits


def test_the_byte_tables_stop_at_256_elements():
    rank6 = QuadraticModule((3,) * 6, (Fraction(2, 3),) * 6,
                            tuple(tuple(Fraction(2 * (i == j), 3) for j in range(6))
                                  for i in range(6)))
    with pytest.raises(ValueError, match="at most 256"):
        module_table(rank6)


# -- negative controls


def _perturbed_table(monkeypatch, module, relabel: dict):
    """Make every integer-table consumer see `module` with some types relabeled."""
    t = module_table(module)
    kind = bytearray(t.kind)
    for x, label in relabel.items():
        kind[t.index[x]] = TYPE_LABELS.index(label)
    fake, original = dataclasses.replace(t, kind=bytes(kind)), fqm.module_table
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


# -- q and b on integer numerators, against the Fraction sums they replace


def fraction_q(module: QuadraticModule, x) -> Fraction:
    """q(x) as a sum of Fraction terms reduced mod 2: the former definition."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        total += xi * xi * module.gen_q[i]
        for j in range(i + 1, len(x)):
            total += 2 * xi * x[j] * module.gen_b[i][j]
    return total % 2


def fraction_b(module: QuadraticModule, x, y) -> Fraction:
    """b(x, y) as a sum of Fraction terms reduced mod 1: the former definition."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += xi * yj * module.gen_b[i][j]
    return total % 1


@st.composite
def valid_modules(draw, max_rank=3):
    """Modules on cyclic factors of order 2, 3, 4 or 9 with consistent, unreduced data.

    b(g_i, g_j) is a multiple of 1/gcd(m_i, m_j) shifted by -1, 0 or 1, and
    q(g_i) lifts b(g_i, g_i) mod 1 to a value with q(g_i) m_i^2 in 2Z,
    shifted by -2, 0 or 2.
    """
    orders = draw(st.lists(st.sampled_from((2, 3, 4, 9)), min_size=1, max_size=max_rank))
    r = len(orders)
    b = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            g = math.gcd(orders[i], orders[j])
            b[i][j] = b[j][i] = Fraction(draw(st.integers(0, g - 1)), g) \
                + draw(st.integers(-1, 1))
    q = []
    for i, m in enumerate(orders):
        v = b[i][i] % 1 + draw(st.integers(0, 1))
        if v * m * m % 2:
            v += 1
        q.append(v + 2 * draw(st.integers(-1, 1)))
    return QuadraticModule(tuple(orders), tuple(q), tuple(map(tuple, b)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(valid_modules(), st.data())
@example(M, None)
@example(UNREDUCED, None)
def test_q_and_b_match_the_fraction_sums(module, data):
    elems = module.elements()
    pairs = (itertools.product(elems, repeat=2) if data is None else
             data.draw(st.lists(st.tuples(st.sampled_from(elems), st.sampled_from(elems)),
                                min_size=1, max_size=40)))
    for x in elems:
        assert repr(module.q(x)) == repr(fraction_q(module, x))
    for x, y in pairs:
        assert repr(module.b(x, y)) == repr(fraction_b(module, x, y))


def test_q_and_b_return_reduced_fractions():
    m = QuadraticModule((9,), (Fraction(2, 9),), ((Fraction(1, 9),),))
    assert m.numerators == ((2,), ((1,),), 9)
    values = [m.q((3,)), m.q((4,)), m.b((3,), (1,)), m.b((3,), (6,))]
    assert values == [0, Fraction(14, 9), Fraction(1, 3), 0]
    assert all(type(v) is Fraction for v in values)
