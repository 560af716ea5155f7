import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weil_oracle
from test_fqm import ALT, _perturbed_table, exponent3_modules, gram_mod3
from triform import fqm, weil
from triform.exact import (
    CycQ,
    OMEGA,
    mat_det,
    mat_eq,
    mat_from_rows,
    mat_identity,
    mat_mul,
    mat_rank,
    mat_trace,
    mat_transpose,
    root_of_unity,
)
from triform.fqm import (
    DualMismatchError,
    PairingConventionError,
    aggregated_action,
    classify,
    module_table,
    orthogonal_group,
    paper_module,
)
from triform.lattice import alt_spec, discriminant_form
from triform.weil import (
    CHARACTER_TABLE,
    CLASS_ORDER,
    CLASS_SIZES,
    GroupTableError,
    OmegaMat,
    RankError,
    RelationError,
    S_MAT,
    T_MAT,
    WeilRep,
    _inv2,
    _mul2,
    _left,
    _neg2,
    aggregated_dual,
    build_sl2f3,
    build_weil,
    cayley_check,
    character_decompose,
    isotypic_subspace,
    o_q_character_norm,
    special_vector_rank,
    special_vectors,
    validate_character_table,
    verify_special,
)
from weil_oracle import _zw_matmul, numerators, omega_mat

M = paper_module()
REP = build_weil(M)
INDEX = module_table(M).index


def class_members(group, label):
    """The elements of one conjugacy class, read off `group.class_of`."""
    return [g for g in group.elements if group.class_of[g.mat] == label]


# ---------------------------------------------------------------------------
# the exact matrix layer


def test_omega_mat_arithmetic():
    w_scalar = omega_mat(np.array([[0]]), np.array([[1]]))
    w2 = w_scalar @ w_scalar
    # w^2 = -1 - w
    assert np.array_equal(numerators(w2)[0], [[-1]]) and np.array_equal(numerators(w2)[1], [[-1]])
    assert (w2 @ w_scalar) == OmegaMat.identity(1)
    assert _conjugate(w_scalar) == w2
    assert w_scalar.trace() == OMEGA


def test_omega_mat_equality_across_denominators():
    a = omega_mat(np.array([[2]]), np.array([[4]]), 2)
    b = omega_mat(np.array([[1]]), np.array([[2]]))
    assert a == b
    assert (a.den, numerators(a)[0].tolist(), numerators(a)[1].tolist()) == (1, [[1]], [[2]])
    assert omega_mat([[3, 6]], [[0, 9]], -6) == omega_mat([[-1, -2]], [[0, -3]], 2)
    assert not omega_mat([[1]], [[0]], 3) == omega_mat([[1]], [[0]], 2)
    assert not omega_mat([[1, 0]], [[0, 0]]) == omega_mat([[1]], [[0]])


@pytest.mark.parametrize("rows,height", [(([3000, -5], [0, 1]), 3000),
                                         (([3, -5], [0, 1]), 1 << 11)], ids=["wide", "narrow"])
def test_a_loose_height_is_cut_in_lowest_terms_too(rows, height):
    # den 1: no gcd to divide out, but a bound past 2^11 still comes down to
    # the largest |numerator|, or to 2^11 when every field is below it
    assert OmegaMat(tuple(map(weil._pack, rows)), (0, 0), 1, 1 << 20, 2).height == height


HUGE = 2**30  # a field holds |x| < 2^31


def _spike(x):
    """81 x 81 zeros but x at row (1, 0, 0, 0), column 0."""
    m = np.zeros((81, 81), dtype=np.int64)
    m[INDEX[(1, 0, 0, 0)], 0] = x
    return m


@pytest.mark.parametrize("operation,exact", [
    # 2 * 2^30 in field 0 would carry into field 1 and read back as (-2^31, 1)
    (lambda: omega_mat([[2]], [[0]]) @ omega_mat([[HUGE, 0]], [[0, 0]]),
     ([[2**31, 0]], [[0, 0]])),
    # rho(T) on row (1, 0, 0, 0), Q = 1: w (x + y w) = -y + (x - y) w
    (lambda: _left(module_table(M), "T", omega_mat(_spike(HUGE), _spike(-HUGE))), None),
], ids=["matmul", "left-product"])
def test_numerators_past_the_field_bound_raise_or_stay_exact(operation, exact):
    # a numerator past 2^31 - 1 cannot sit in a field: each operation must
    # raise OverflowError before a field carries, or give the exact value
    try:
        result = operation()
    except OverflowError:
        return
    assert exact is not None
    assert [x.tolist() for x in numerators(result)] == list(exact)


def test_a_trace_past_the_field_bound_stays_exact():
    # traces add fields as Python ints, so no bound applies
    assert omega_mat(np.diag([HUGE, HUGE]), np.zeros((2, 2)), 3).trace() == Fraction(2**31, 3)


def test_the_field_bound_is_sharp():
    # (m - m w)^2 = -3 m^2 w: the w-part reaches the bound 3 k m^2 itself
    m = math.isqrt((2**31 - 1) // 3)
    x = omega_mat([[m]], [[-m]])
    assert [v.tolist() for v in numerators(x @ x)] == [[[0]], [[-3 * m * m]]]
    y = omega_mat([[m + 1]], [[-m - 1]])
    with pytest.raises(OverflowError):
        y @ y
    with pytest.raises(OverflowError):
        omega_mat([[2**31]], [[0]])


def _object_zw_matmul(a1, b1, a2, b2):
    """The Z[w] product over Python ints, the oracle for _zw_matmul."""
    a1, b1, a2, b2 = (np.asarray(x).astype(object) for x in (a1, b1, a2, b2))
    b1b2 = b1 @ b2
    return a1 @ a2 - b1b2, a1 @ b2 + b1 @ a2 - b1b2


@st.composite
def zw_operands(draw, limit=2**53):
    """Two Z[w] factors whose numerator bounds m1, m2 sit at 3 k m1 m2 < limit."""
    rows, k, cols = (draw(st.integers(1, 4)) for _ in range(3))
    m1 = draw(st.integers(1, (limit - 1) // (3 * k)))
    m2 = (limit - 1) // (3 * k * m1)

    def block(r, c, m):
        entries = st.lists(st.integers(-m, m), min_size=r * c, max_size=r * c)
        return np.array(draw(entries), dtype=np.int64).reshape(r, c)

    return (block(rows, k, m1), block(rows, k, m1), block(k, cols, m2), block(k, cols, m2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(zw_operands())
def test_zw_matmul_matches_python_int_products(operands):
    a, b = _zw_matmul(*operands)
    want_a, want_b = _object_zw_matmul(*operands)
    assert a.astype(object).tolist() == want_a.tolist()
    assert b.astype(object).tolist() == want_b.tolist()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(zw_operands(2**31))
def test_packed_products_match_python_int_products(operands):
    # over the denominator 1 nothing reduces, so the numerators are the product
    product = omega_mat(*operands[:2]) @ omega_mat(*operands[2:])
    want = _object_zw_matmul(*operands)
    assert [x.tolist() for x in numerators(product)] == [w.tolist() for w in want]


def test_zw_matmul_bound_is_sharp():
    # (m - m w)^2 = -3 m^2 w: the w-part reaches the bound 3 k m^2 itself
    m = math.isqrt((2**53 - 1) // 3)
    x = np.array([[m]]), np.array([[-m]])
    a, b = _zw_matmul(*x, *x)
    assert int(a[0, 0]) == 0 and int(b[0, 0]) == -3 * m * m
    y = np.array([[m + 1]]), np.array([[-m - 1]])
    with pytest.raises(OverflowError):
        _zw_matmul(*y, *y)


def entry(m: OmegaMat, i: int, j: int) -> CycQ:
    """The (i, j) entry of m as a CycQ."""
    a, b = numerators(m)
    return CycQ(3, [int(a[i, j]), int(b[i, j])], m.den)


def cyc_rows(m: OmegaMat):
    """The entries of m as CycQ rows, for the generic echelon as an oracle."""
    a, b = numerators(m)
    return tuple(tuple(CycQ(3, [int(x), int(y)], m.den) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


# ---------------------------------------------------------------------------
# the group


def test_group_structure():
    group = build_sl2f3()
    assert group.order == 24
    words = {g.mat: g.word for g in group.elements}
    assert words[((1, 0), (0, 1))] == ""
    # canonical words are shortest; the two generators are themselves
    assert words[S_MAT] == "S"
    assert words[T_MAT] == "T"
    sizes = Counter(group.class_of.values())
    assert tuple(sizes[label] for label in CLASS_ORDER) == CLASS_SIZES
    for g in group.elements:
        assert _mul2(g.mat, _inv2(g.mat)) == ((1, 0), (0, 1))


def test_character_table_orthogonality():
    validate_character_table()
    assert all(type(v) is int for row in CHARACTER_TABLE.values() for pair in row for v in pair)
    dims = sorted(row[0][0] for row in CHARACTER_TABLE.values())
    assert dims == [1, 1, 1, 2, 2, 2, 3]
    assert sum(d * d for d in dims) == 24


# ---------------------------------------------------------------------------
# the representation


def test_generator_matrices():
    # diagonal phases 1, 1, w, w^2 on types 00, 0, 1, 2
    t = REP.rho_T
    for x, i in INDEX.items():
        q = M.q(x)
        expected = root_of_unity(int(Fraction(3, 2) * q % 3), 3)
        assert entry(t, i, i) == expected
    s = REP.rho_S
    z = INDEX[(0, 0, 0, 0)]
    assert entry(s, z, z) == Fraction(-1, 9)
    alpha = INDEX[(1, 0, 0, 0)]
    # b((1,0,0,0), (1,0,0,0)) = 2/3, so the entry is -(1/9) e^(-4 pi i/3)
    assert entry(s, alpha, alpha) == Fraction(-1, 9) * root_of_unity(-2, 3)


def test_build_weil_reuses_the_certified_rho_s_and_its_square(monkeypatch):
    # two transforms certify rho(S) and rho(S)^2 and three (ST)^3 = S^2; of
    # the other 20 elements, 10 are rho(-g) = N rho(g) with rho(g) built
    # first, and 3 of those 10 rho(g) have a word that starts with S
    calls = []
    fourier = weil._fourier

    def counting_fourier(*args):
        calls.append(args)
        return fourier(*args)

    monkeypatch.setattr(weil, "_fourier", counting_fourier)
    assert build_weil(M).rho == REP.rho
    assert len(calls) == 8


def _full_cayley_table(rep):
    """The 576-pair oracle: every rho(g) rho(h) against rho(gh), by the numpy route."""
    elements = rep.group.elements
    mats = {g: (*numerators(m), m.den) for g, m in rep.rho.items()}
    for g in elements:
        for h in elements:
            product = weil_oracle.matmul(mats[g.mat], mats[h.mat])
            if not weil_oracle.same(rep.rho[_mul2(g.mat, h.mat)], product):
                raise RelationError(f"rho({g.word or 'E'}) rho({h.word or 'E'}) disagrees")
    return len(elements) ** 2


def _with_entry(word, value):
    """REP with the (0, 0) 1-part numerator of rho(word) set to `value`."""
    g = _matrix_of_word(word)
    r = REP.rho[g]
    a, b = numerators(r)
    a[0, 0] = value
    return REP._replace(rho={**REP.rho, g: omega_mat(a, b, r.den)})


def test_full_multiplication_table():
    assert cayley_check(REP) == _full_cayley_table(REP) == 576


def test_cayley_check_makes_one_transform_per_s_orbit(monkeypatch):
    # 24 products by rho(T); by rho(S), one per S-orbit {h, Sh, -h, -Sh} and
    # rho(S) rho(S) = rho(S^2); by rho(S)^2, the negation rows of h and Sh
    calls, raw = [], weil._raw

    def counting_raw(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(weil, "_raw", counting_raw)
    assert cayley_check(REP) == 576
    assert Counter(letter for _, letter, _ in calls) == {"T": 24, "S": 7, "SS": 12}


@pytest.mark.parametrize("word", [g.word for g in REP.group.elements],
                         ids=[g.word or "E" for g in REP.group.elements])
def test_cayley_check_catches_a_corrupted_entry_of_any_element(word):
    # a corrupted rho(k) shows in rho(T) rho(T^-1 k); the oracle agrees
    corrupted = _with_entry(word, numerators(REP.rho[_matrix_of_word(word)])[0][0, 0] + 1)
    with pytest.raises(RelationError):
        cayley_check(corrupted)
    with pytest.raises(RelationError):
        _full_cayley_table(corrupted)


def test_cayley_check_catches_rho_g_in_place_of_rho_minus_g():
    # the transform of the orbit of T reads rho(T) and rho(ST), not rho(-T) =
    # rho(SST), which only its negation rows certify; the oracle agrees
    swapped = REP._replace(rho={**REP.rho, _matrix_of_word("SST"): REP.rho[T_MAT]})
    with pytest.raises(RelationError, match=r"rho\(SS\) rho\(T\) disagrees"):
        cayley_check(swapped)
    with pytest.raises(RelationError):
        _full_cayley_table(swapped)


def test_cayley_check_requires_rho_s2_to_be_the_negation_rows():
    s2 = _mul2(S_MAT, S_MAT)
    a, b = numerators(REP.rho[s2])
    flipped = REP._replace(rho={**REP.rho, s2: omega_mat(-a, -b)})
    with pytest.raises(RelationError, match=r"rho\(S\) rho\(S\) disagrees"):
        cayley_check(flipped)


def test_cayley_check_requires_rho_e_to_be_the_identity():
    identity, minus = ((1, 0), (0, 1)), ((2, 0), (0, 2))
    negated = REP._replace(rho={**REP.rho, identity: REP.rho[minus]})
    with pytest.raises(RelationError, match=r"rho\(E\) is not the identity"):
        cayley_check(negated)


def test_cayley_check_names_a_failing_pair():
    swapped = REP._replace(
        rho={**REP.rho, _matrix_of_word("ST"): REP.rho[_matrix_of_word("TS")]})
    with pytest.raises(RelationError, match=r"rho\([ST]\) rho\(\w+\) disagrees"):
        cayley_check(swapped)


def test_cayley_check_refuses_numerators_past_the_field_bound():
    # rho(TS) first enters as h, rho(S) rho(TS), before any comparison reads
    # it; the transform may quadruple numerators per digit, 4^4 2^30 >= 2^31,
    # so OverflowError shows the bound is checked first
    with pytest.raises(OverflowError):
        cayley_check(_with_entry("TS", 2**30))


def test_cayley_check_rejects_a_denominator_outside_nine():
    thirds = REP._replace(
        rho={**REP.rho, S_MAT: omega_mat(*numerators(REP.rho_S), 27)})
    with pytest.raises(RelationError, match="does not divide 9"):
        cayley_check(thirds)


def test_rho_inverse_is_conjugate_transpose():
    # the representation is unitary with real structure constants
    for word in ("S", "T", "ST", "TS", "STT"):
        g = _matrix_of_word(word)
        m, inv = REP.rho[g], REP.rho[_inv2(g)]
        assert m @ inv == OmegaMat.identity(81)
        assert inv == _transpose(_conjugate(m))


def _matrix_of_word(word):
    m = ((1, 0), (0, 1))
    for ch in word:
        m = _mul2(m, S_MAT if ch == "S" else T_MAT)
    return m


def _transpose(m):
    a, b = numerators(m)
    return omega_mat(a.T, b.T, m.den)


def _conjugate(m):
    """Entrywise complex conjugate: conj(a + b w) = a + b w^2 = (a - b) - b w."""
    a, b = numerators(m)
    return omega_mat(a - b, -b, m.den)


def test_traces_on_classes():
    dec = character_decompose(REP)
    expected = (81, 1, 1, -9, 1, 1, -9)
    for tr, want in zip(dec.traces, expected):
        assert tr == want
        # algebraic integers: integer coordinates over the power basis
        assert all(c.denominator == 1 for c in tr.c)


def test_multiplicities():
    dec = character_decompose(REP)
    assert dec.multiplicities == (1, 10, 5, 5, 5, 10, 5)


def test_a_trace_outside_z_w_raises(monkeypatch):
    # the trace of a finite-order matrix is an algebraic integer; 1/2 is not
    monkeypatch.setattr(OmegaMat, "trace", lambda self: CycQ(3, [1, 0], 2))
    with pytest.raises(RelationError, match=r"trace on class E is not in Z\[w\]"):
        character_decompose(REP)


@pytest.mark.parametrize("row, message", [
    ([(0, 1)] * 7, "multiplicity of character 1 is irrational"),  # w chi_1
    ([(1, 0)] * 6 + [(0, 0)], "multiplicity of character 1 is 5/2"),  # (24 + 4 * 9) / 24
    ([(-1, 0)] * 7, "multiplicity of character 1 is -1"),  # -chi_1
], ids=["irrational", "fraction", "negative"])
def test_a_row_that_is_no_character_gives_no_multiplicity(monkeypatch, row, message):
    rows = validate_character_table()
    monkeypatch.setattr(weil, "validate_character_table", lambda: [row] + rows[1:])
    with pytest.raises(RelationError) as info:
        character_decompose(REP)
    assert str(info.value) == message


def test_rho_commutes_with_orthogonal_group():
    group = orthogonal_group(M)
    idx = np.arange(81)
    for k in group.generator_rows:
        p = np.frombuffer(group.perm[k], dtype=np.uint8).astype(np.intp)
        pinv = np.empty_like(p)
        pinv[p] = idx
        for a, b in map(numerators, (REP.rho_S, REP.rho_T)):
            assert np.array_equal(a[np.ix_(pinv, pinv)], a)
            assert np.array_equal(b[np.ix_(pinv, pinv)], b)


# ---------------------------------------------------------------------------
# independent re-derivation of the character table

I4 = root_of_unity(1, 4)
HALF = Fraction(1, 2)


def _quaternion_model():
    one = mat_from_rows(mat_identity(2))
    i_m = mat_from_rows([[I4, 0], [0, -I4]])
    j_m = mat_from_rows([[0, 1], [-1, 0]])
    k_m = mat_mul(i_m, j_m)
    return one, i_m, j_m, k_m


def _scale_mat(s, m):
    return tuple(tuple(s * x for x in row) for row in m)


def _add_mats(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(out, m))
    return out


def _mat_key(m):
    return tuple(tuple(tuple(str(c) for c in x.embed(12).c) for x in row) for row in m)


def test_two_dimensional_characters_from_quaternion_model():
    """Re-derive the three 2-dim irreducibles inside SU(2) and, with the
    cubic and permutation characters, recover the whole frozen table."""
    group = build_sl2f3()
    one, i_m, j_m, k_m = _quaternion_model()
    neg_one = _scale_mat(CycQ.rational(-1), one)

    order4 = []
    for base in (i_m, j_m, k_m):
        order4.append(base)
        order4.append(_scale_mat(CycQ.rational(-1), base))
    order3 = []
    for si, sj, sk in itertools.product((1, -1), repeat=3):
        cand = _scale_mat(HALF, _add_mats(
            neg_one, _scale_mat(CycQ.rational(si), i_m),
            _scale_mat(CycQ.rational(sj), j_m),
            _scale_mat(CycQ.rational(sk), k_m)))
        assert mat_eq(mat_mul(cand, mat_mul(cand, cand)), one)
        order3.append(cand)

    found = None
    for ms in order4:
        if found:
            break
        ms2 = mat_mul(ms, ms)
        if not mat_eq(ms2, neg_one):
            continue
        for mt in order3:
            # defining relations first, then full well-definedness
            mst = mat_mul(ms, mt)
            if not mat_eq(mat_mul(mst, mat_mul(mst, mst)), ms2):
                continue
            images = {}
            ok = True
            for g in group.elements:
                m = one
                for ch in g.word:
                    m = mat_mul(m, ms if ch == "S" else mt)
                images[g.mat] = m
            for g in group.elements:
                for h in group.elements:
                    if not mat_eq(mat_mul(images[g.mat], images[h.mat]),
                                  images[_mul2(g.mat, h.mat)]):
                        ok = False
                        break
                if not ok:
                    break
            if ok and len({_mat_key(m) for m in images.values()}) == 24:
                found = images
                break
    assert found is not None, "no faithful 2-dimensional model exists"

    char2 = tuple(mat_trace(found[class_members(group, label)[0].mat])
                  for label in CLASS_ORDER)

    # cubic characters via the abelianization
    comm = {((1, 0), (0, 1))}
    frontier = list(comm)
    commutators = {
        _mul2(_mul2(g.mat, h.mat), _inv2(_mul2(h.mat, g.mat)))
        for g in group.elements for h in group.elements
    }
    comm_group = set()
    frontier = [((1, 0), (0, 1))]
    comm_group.update(frontier)
    while frontier:
        nxt = []
        for m in frontier:
            for c in commutators:
                p = _mul2(m, c)
                if p not in comm_group:
                    comm_group.add(p)
                    nxt.append(p)
        frontier = nxt
    assert len(comm_group) == 8  # the quaternion subgroup

    def coset_exponent(mat):
        for k in (0, 1, 2):
            tk = ((1, 0), (0, 1))
            for _ in range(k):
                tk = _mul2(tk, T_MAT)
            if _mul2(_inv2(tk), mat) in comm_group:
                return k
        raise AssertionError("quotient is not generated by the T-coset")

    cubic1 = tuple(root_of_unity(coset_exponent(class_members(group, label)[0].mat), 3)
                   for label in CLASS_ORDER)
    cubic2 = tuple(v * v for v in cubic1)
    for label in CLASS_ORDER:  # class functions indeed
        for g in class_members(group, label):
            assert coset_exponent(g.mat) == coset_exponent(class_members(group, label)[0].mat)

    # permutation character on the projective line minus the trivial one
    lines = [(1, 0), (0, 1), (1, 1), (1, 2)]

    def line_of(v):
        v = (v[0] % 3, v[1] % 3)
        return v if v in lines else ((2 * v[0]) % 3, (2 * v[1]) % 3)

    def fixed_lines(mat):
        count = 0
        for v in lines:
            img = (mat[0][0] * v[0] + mat[0][1] * v[1],
                   mat[1][0] * v[0] + mat[1][1] * v[1])
            if line_of(img) == v:
                count += 1
        return count

    chi_three_dim = tuple(CycQ.rational(fixed_lines(class_members(group, label)[0].mat) - 1)
                          for label in CLASS_ORDER)

    trivial = tuple(CycQ.rational(1) for _ in CLASS_ORDER)
    derived = [
        trivial,
        chi_three_dim,
        cubic1,
        cubic2,
        char2,
        tuple(a * b for a, b in zip(char2, cubic1)),
        tuple(a * b for a, b in zip(char2, cubic2)),
    ]

    # all seven have norm one and are pairwise orthogonal
    for i, chi in enumerate(derived):
        for j, psi in enumerate(derived):
            acc = CycQ.rational(0)
            for size, a, b in zip(CLASS_SIZES, chi, psi):
                acc = acc + Fraction(size) * a * b.conjugate()
            assert acc == (24 if i == j else 0)

    # the derived characters are the frozen rows of pairs (x, y) = x + y w,
    # matched one to one by CycQ equality across conductors
    unmatched = [tuple(CycQ(3, v) for v in row) for row in CHARACTER_TABLE.values()]
    for chi in derived:
        row = next((psi for psi in unmatched
                    if all(a == b for a, b in zip(chi, psi))), None)
        assert row is not None
        unmatched.remove(row)
    assert not unmatched


# ---------------------------------------------------------------------------
# aggregated dual action


def test_aggregated_dual_matches_display():
    agg_t, agg_s = aggregated_dual(REP)
    w = OMEGA
    assert agg_t[2][2] == w * w and agg_t[3][3] == w
    assert agg_s[1][0] == Fraction(-20, 9)
    assert agg_s[1][1] == Fraction(7, 9)
    assert agg_s[2][3] == Fraction(6, 9)
    # a representation of the 4-group quotient: involution and braid relation
    assert mat_eq(mat_mul(agg_s, agg_s), mat_identity(4))
    st = mat_mul(agg_s, agg_t)
    assert mat_eq(mat_mul(st, mat_mul(st, st)), mat_identity(4))


@pytest.mark.parametrize("relabel", [{(1, 0, 0, 0): "2"}], ids=["rho_S"])
def test_aggregated_dual_rejects_a_representative_dependent_action(monkeypatch, relabel):
    # with 1000 counted as type 2, the type-2 column sums of rho(S), that is
    # the pairing counts of type-2 representatives, disagree
    _perturbed_table(monkeypatch, M, relabel)
    with pytest.raises(PairingConventionError, match="representative"):
        aggregated_dual(REP)


def test_aggregated_dual_rejects_a_consistent_wrong_count(monkeypatch):
    table = fqm.pairing_table(M)
    monkeypatch.setattr(fqm, "_pairing_counts", lambda t: {**table, ("1", "2"): (7, 11, 12)})
    with pytest.raises(DualMismatchError, match="aggregated S-action differs"):
        aggregated_dual(REP)


def column_sum_dual(rep: WeilRep):
    """The aggregated pair summed from rho itself: column sums of conj rho(S)
    over each type's rows, and the conjugated rho(T) phase of each type."""
    groups = [list(idx) for idx in module_table(rep.module).groups().values()]
    s_conj = _conjugate(rep.rho_S)
    s_a, s_b = numerators(s_conj)
    t_a, t_b = numerators(rep.rho_T)
    agg_s = []
    for rows in groups:
        sums = [{(int(s_a[rows, j].sum()), int(s_b[rows, j].sum())) for j in cols}
                for cols in groups]
        assert all(len(col) == 1 for col in sums)  # independent of the representative
        agg_s.append(tuple(CycQ(3, list(col.pop()), s_conj.den) for col in sums))
    phases = []
    for idx in groups:
        assert len({(int(t_a[i, i]), int(t_b[i, i])) for i in idx}) == 1
        phases.append(entry(rep.rho_T, idx[0], idx[0]).conjugate())
    agg_t = tuple(tuple(p if i == j else CycQ.rational(0) for j in range(len(groups)))
                  for i, p in enumerate(phases))
    return agg_t, tuple(agg_s)


@pytest.mark.parametrize("module", [M, discriminant_form(alt_spec()).module],
                         ids=["paper", "alt-decomposition"])
def test_aggregated_action_equals_the_column_sums_of_rho(module):
    agg_t, agg_s = aggregated_action(module)
    oracle_t, oracle_s = column_sum_dual(build_weil(module))
    assert mat_eq(agg_t, oracle_t) and mat_eq(agg_s, oracle_s)
    assert [list(map(repr, row)) for row in agg_s] == [list(map(repr, row)) for row in oracle_s]


# ---------------------------------------------------------------------------
# isotypic subspace and the special vectors


def test_isotypic_subspace_dimension():
    sub = isotypic_subspace(REP, 3)
    assert sub.dimension == 5
    assert mat_rank(cyc_rows(_transpose(sub.projector))) == 5


def test_isotypic_projectors_of_all_characters_sum_to_the_identity():
    subs = [isotypic_subspace(REP, i) for i in sorted(CHARACTER_TABLE)]
    assert tuple(sub.dimension for sub in subs) == (1, 30, 5, 5, 10, 20, 10)
    den = math.lcm(*(sub.projector.den for sub in subs))
    total_a = sum(numerators(sub.projector)[0] * (den // sub.projector.den) for sub in subs)
    total_b = sum(numerators(sub.projector)[1] * (den // sub.projector.den) for sub in subs)
    assert np.array_equal(total_a, den * np.eye(81)) and not total_b.any()


def test_isotypic_subspace_rejects_a_projector_that_does_not_commute_with_rho():
    # every rho(g) conjugated by a transposition outside O(q) is still a
    # representation, so its projector is idempotent with an integer trace,
    # but it no longer commutes with rho(S) and rho(T) of the module
    perm = np.arange(81)
    i, j = INDEX[(1, 0, 0, 0)], INDEX[(0, 1, 0, 0)]
    perm[[i, j]] = perm[[j, i]]
    moved = {g: omega_mat(*(x[np.ix_(perm, perm)] for x in numerators(m)), m.den)
             for g, m in REP.rho.items()}
    with pytest.raises(RankError, match="does not commute"):
        isotypic_subspace(REP._replace(rho=moved))


def test_isotypic_subspace_rejects_a_projector_that_mixes_levels_of_q(monkeypatch):
    # with Q moved on one element, rho(T) = diag(w^Q) no longer commutes with
    # P, while the rho(S) check, which reads only the B table, still passes
    table = module_table(M)
    q = bytearray(table.q)
    q[INDEX[(1, 0, 0, 0)]] = (q[INDEX[(1, 0, 0, 0)]] + 1) % 3
    monkeypatch.setattr(weil, "module_table", lambda module: table._replace(q=bytes(q)))
    with pytest.raises(RankError, match="does not commute"):
        isotypic_subspace(REP)


def test_isotypic_subspace_rejects_a_character_value_outside_z_w(monkeypatch):
    chi = list(CHARACTER_TABLE[3])
    chi[CLASS_ORDER.index("S")] = (Fraction(1, 2), 0)
    monkeypatch.setitem(CHARACTER_TABLE, 3, tuple(chi))
    with pytest.raises(GroupTableError, match="orthogonality fails"):
        validate_character_table()
    with pytest.raises(GroupTableError, match="orthogonality fails"):
        isotypic_subspace(REP, 3)


def test_isotypic_subspace_rejects_twice_a_character(monkeypatch):
    # a row that passed validation but is 2 chi_3 sums 2 P, which is not idempotent
    rows = validate_character_table()
    doubled = [tuple((2 * x, 2 * y) for x, y in row) if i == 3 else row
               for i, row in zip(CHARACTER_TABLE, rows)]
    monkeypatch.setattr(weil, "validate_character_table", lambda: doubled)
    with pytest.raises(RankError, match="not idempotent"):
        isotypic_subspace(REP, 3)


def test_special_vectors_all_checks():
    sub = isotypic_subspace(REP, 3)
    vectors = special_vectors(REP)
    assert len(vectors) == 15
    for sv in vectors:
        checks = verify_special(REP, sv, sub)
        assert checks.s_fixed
        assert checks.t_eigenvector
        assert checks.reflections_negate == (True, True, True, True)
        assert checks.in_isotypic
        assert checks.ok


def test_special_vectors_span_rank_five():
    vectors = special_vectors(REP)
    assert special_vector_rank(vectors) == 5


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=5)))
def test_the_gram_matrix_has_the_rank_of_its_rows(rows):
    assert mat_rank(mat_mul(rows, mat_transpose(rows))) == mat_rank(rows)


def test_a_vector_outside_the_span_raises_the_rank_to_six():
    vectors = list(special_vectors(REP))
    outside = [0] * 81
    outside[INDEX[(0, 0, 0, 0)]] = 1  # every sign vector vanishes at 0
    vectors[0] = vectors[0]._replace(vec=tuple(outside))
    assert special_vector_rank(vectors) == 6


def test_special_vector_standard_sign():
    vectors = special_vectors(REP)
    standard = next(sv for sv in vectors if sv.basis.alpha0 == (1, 0, 0, 0))
    assert standard.coeffs[(1, 1, 1, 1)] == -1


def test_special_vector_supports_are_the_signed_basis_sums():
    # special_vector proves this rather than checking it: see its comment
    type_one = set(classify(M)["1"])
    for sv in special_vectors(REP):
        sums = {tuple(sum(c * a[k] for c, a in zip(signs, sv.basis.vectors)) % 3
                      for k in range(4))
                for signs in itertools.product((1, -1), repeat=4)}
        assert len(sums) == 16
        assert set(sv.coeffs) == sums
        assert sums <= type_one
        assert [x for x, c in zip(module_table(M).elements, sv.vec) if c] == sorted(sums)


def test_support_coverage():
    vectors = special_vectors(REP)
    counts: dict = {}
    for sv in vectors:
        for x in sv.coeffs:
            counts[x] = counts.get(x, 0) + 1
    type_one = classify(M)["1"]
    assert set(counts) == set(type_one)
    assert set(counts.values()) == {8}


def test_o_q_character_norms():
    sub = isotypic_subspace(REP, 3)
    assert o_q_character_norm(REP, sub.projector) == 1
    zero_line = np.zeros((81, 81), dtype=np.int64)
    zero_line[INDEX[(0, 0, 0, 0)], INDEX[(0, 0, 0, 0)]] = 1
    assert o_q_character_norm(REP, omega_mat(zero_line, np.zeros_like(zero_line))) == 1
    full = o_q_character_norm(REP, OmegaMat.identity(81))
    assert full.denominator == 1 and full > 1


def test_o_q_norm_rejects_unstable_projector():
    line = np.zeros((81, 81), dtype=np.int64)
    line[INDEX[(1, 0, 0, 0)], INDEX[(1, 0, 0, 0)]] = 1
    bad = omega_mat(line, np.zeros_like(line))
    with pytest.raises(Exception):
        o_q_character_norm(REP, bad)


# ---------------------------------------------------------------------------
# the packed route against the former numpy route


def _nondegenerate(module):
    return mat_det(gram_mod3(module)) % 3 != 0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(exponent3_modules().filter(_nondegenerate))
@example(M)
@example(ALT)
def test_the_packed_route_equals_the_numpy_oracle(module):
    table, same = module_table(module), weil_oracle.same
    oracle = weil_oracle.word_products(module)
    # the transform certificate of build_weil, on every module
    ident = OmegaMat.identity(module.order())
    assert same(_left(table, "S", ident), weil_oracle.generators(module)[0])
    # each word by left products, whether or not the relations hold
    for g in build_sl2f3().elements:
        m = ident
        for letter in reversed(g.word):
            m = _left(table, letter, m)
        assert same(m, oracle[g.mat]) and m.trace() == weil_oracle.trace(oracle[g.mat])
    if not weil_oracle.relations_hold(module):
        with pytest.raises(RelationError):
            build_weil(module)
        return
    rep = build_weil(module)
    assert all(same(rep.rho[g], oracle[g]) for g in oracle)
    traces = {rep.group.class_of[g]: weil_oracle.trace(oracle[g]) for g in oracle}
    assert character_decompose(rep).traces == tuple(traces[c] for c in CLASS_ORDER)
    sub = isotypic_subspace(rep)
    projector = weil_oracle.projector(oracle, 3)
    assert same(sub.projector, projector)
    assert o_q_character_norm(rep, sub.projector) == weil_oracle.o_q_norm(module, projector)
