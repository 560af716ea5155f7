import itertools
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triform import exact
from triform.exact import (
    CycQ,
    OMEGA,
    alpha_invariant,
    cyclotomic_poly,
    dot,
    euler_phi,
    mat_det,
    mat_eq,
    mat_from_rows,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_nullspace,
    mat_pow,
    mat_rank,
    mat_solve,
    mat_trace,
    mat_vec,
    phase_multiplicities,
    root_of_unity,
    trace_histogram,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4
    assert euler_phi(3) == 2


def test_omega_relations():
    w = OMEGA
    w2 = root_of_unity(2, 3)
    assert w * w2 == 1
    assert w + w2 + 1 == 0
    assert w.conjugate() == w2
    assert w * w == w2
    assert w2 * w2 == w


def test_roots_of_unity_fold():
    assert root_of_unity(5, 3) == root_of_unity(2, 3)
    assert root_of_unity(-1, 3) == root_of_unity(2, 3)
    assert root_of_unity(0, 7) == 1
    i = root_of_unity(1, 4)
    assert i * i == -1


def test_embedding_round_trip_is_identity():
    # conductor 3 into conductor 12 and back
    values = [OMEGA, CycQ(3, [Fraction(1, 2), Fraction(-2, 7)]), CycQ.rational(5)]
    for v in values:
        up = v.embed(12)
        assert up.n == 12
        assert up == v  # equality across conductors


def test_inverse_and_division():
    v = 1 + OMEGA  # = -omega^2
    assert v.invert() == -OMEGA
    assert v * v.invert() == 1
    with pytest.raises(ZeroDivisionError):
        CycQ.rational(0).invert()
    assert (OMEGA / OMEGA) == 1


def test_mixed_conductor_arithmetic():
    i = root_of_unity(1, 4)
    assert i * OMEGA == root_of_unity(7, 12)
    assert (i * OMEGA).n == 12
    assert i + OMEGA - OMEGA == i


def test_sqrt_minus_three():
    s = 1 + 2 * OMEGA
    assert s * s == -3


def test_property_field_axioms_seeded():
    rng = random.Random(20260817)
    conductors = [1, 3, 4, 12]
    for _ in range(60):
        n = rng.choice(conductors)
        a = CycQ(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(euler_phi(n))])
        m = rng.choice(conductors)
        b = CycQ(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(euler_phi(m))])
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.invert() == 1


def test_matrix_basics():
    a = mat_from_rows([[1, OMEGA], [0, 1]])
    b = mat_from_rows([[1, -OMEGA], [0, 1]])
    assert mat_eq(mat_mul(a, b), mat_identity(2))
    assert mat_eq(mat_inverse(a), b)
    assert mat_trace(a) == 2
    assert mat_rank(a) == 2
    assert mat_eq(mat_pow(a, 0), mat_identity(2))
    assert mat_eq(mat_pow(a, 3), mat_from_rows([[1, 3 * OMEGA], [0, 1]]))


def test_mat_pow_squares_without_an_identity_product(monkeypatch):
    a = mat_from_rows([[1, OMEGA], [0, OMEGA]])
    products = [mat_identity(2)]
    for _ in range(8):
        products.append(mat_mul(products[-1], a))
    calls = []
    mul = exact.mat_mul
    monkeypatch.setattr(exact, "mat_mul", lambda x, y: calls.append(1) or mul(x, y))
    made = {}
    for k, want in enumerate(products):
        calls.clear()
        assert mat_eq(mat_pow(a, k), want)
        made[k] = len(calls)
    assert made == {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 3}
    with pytest.raises(ValueError, match="negative powers"):
        mat_pow(a, -1)


def test_dot_keeps_the_entry_type_and_gives_0_on_empty_rows(monkeypatch):
    assert dot((), ()) == 0 and type(dot((), ())) is int
    assert dot((2, -3), (5, 7)) == -11 and type(dot((2, -3), (5, 7))) is int
    third = Fraction(1, 3)
    assert dot((third, 1), (third, third)) == Fraction(4, 9)
    assert dot((third,), (3,)) == 1 and type(dot((third,), (3,))) is Fraction
    assert dot((OMEGA, 2), (OMEGA, third)) == OMEGA * OMEGA + Fraction(2, 3)
    # over CycQ no int 0 is lifted into the field: no rational is built
    lifts, rational = [], CycQ.rational
    monkeypatch.setattr(CycQ, "rational", staticmethod(lambda x: lifts.append(x) or rational(x)))
    assert dot((OMEGA, OMEGA, -OMEGA), (OMEGA, OMEGA, OMEGA)) == OMEGA * OMEGA
    assert lifts == []


def test_matrix_inverse_random_seeded():
    rng = random.Random(7)
    for _ in range(10):
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            a = mat_from_rows(rows)
            if mat_rank(a) == 3:
                break
        inv = mat_inverse(a)
        assert mat_eq(mat_mul(a, inv), mat_identity(3))
        assert mat_eq(mat_mul(inv, a), mat_identity(3))


def test_nullspace_and_solve():
    a = mat_from_rows([[1, 1, 0], [0, 0, 1]])
    ker = mat_nullspace(a)
    assert len(ker) == 1
    assert all(x.is_zero() for x in mat_vec(a, ker[0]))
    sol = mat_solve(a, tuple(CycQ.rational(x) for x in (3, 5)))
    assert sol is not None
    assert list(mat_vec(a, sol)) == [3, 5]
    none = mat_solve(mat_from_rows([[1, 1], [1, 1]]),
                     tuple(CycQ.rational(x) for x in (0, 1)))
    assert none is None


def test_phase_multiplicities_diagonal():
    w = OMEGA
    a = mat_from_rows([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, w * w, 0],
        [0, 0, 0, w],
    ])
    mults = phase_multiplicities(a, 3)
    assert mults == {Fraction(0): 2, Fraction(2, 3): 1, Fraction(1, 3): 1}
    assert alpha_invariant(mults) == 1


def test_phase_multiplicities_rejects_wrong_order():
    a = mat_from_rows([[1, 1], [0, 1]])  # infinite order
    with pytest.raises(ValueError):
        phase_multiplicities(a, 3)
    with pytest.raises(ValueError):
        phase_multiplicities(mat_from_rows([[OMEGA, 0], [0, 1]]), 2)  # order 3 > 2


def test_phase_multiplicities_order_multiple_is_fine():
    # using an exponent that is a proper multiple of the true order
    a = mat_from_rows([[OMEGA, 0], [0, 1]])
    mults = phase_multiplicities(a, 6)
    assert mults == {Fraction(0): 1, Fraction(2, 6): 1}
    assert alpha_invariant(mults) == Fraction(1, 3)


def test_phase_multiplicities_on_the_image_of_a_projector():
    a = mat_from_rows([[OMEGA, 0], [0, 1]])
    assert phase_multiplicities(a, 3, mat_from_rows([[0, 0], [0, 1]])) == {Fraction(0): 1}
    assert phase_multiplicities(a, 3, mat_from_rows([[1, 0], [0, 0]])) == {Fraction(1, 3): 1}
    assert phase_multiplicities(a, 1, mat_from_rows([[0, 0], [0, 0]])) == {}
    with pytest.raises(ValueError, match="m <= 2"):
        phase_multiplicities(a, 2, mat_from_rows([[1, 0], [0, 0]]))


@pytest.mark.parametrize("traces, dim, message", [
    ([0, 1], 1, "multiplicity 1/2 for phase 0/2 is not a count"),
    ([3, 1], 1, "multiplicity -1 for phase 1/2 is not a count"),
    ([1, 1], 3, "phase multiplicities sum to 1, dimension is 3"),
    ([OMEGA, 1, 1], 1, "non-rational multiplicity for phase 0/3"),
], ids=["fraction", "negative", "sum", "irrational"])
def test_trace_histogram_rejects_traces_that_give_no_counts(traces, dim, message):
    with pytest.raises(ValueError) as info:
        trace_histogram(traces, dim)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# properties of the one echelon behind rank, nullspace, solve, inverse, det

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)
SMALL = st.integers(-3, 3)


@st.composite
def systems(draw):
    """A small integer matrix and a right-hand side of matching length."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = tuple(tuple(draw(SMALL) for _ in range(cols)) for _ in range(rows))
    return a, tuple(draw(SMALL) for _ in range(rows))


square_matrices = st.integers(1, 4).flatmap(lambda k: st.tuples(
    *[st.tuples(*[SMALL] * k)] * k))


def lift(a, n):
    return tuple(tuple(CycQ.rational(x).embed(n) for x in row) for row in a)


def leibniz_det(a):
    total = 0
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


@EXAMPLES
@given(systems())
def test_rational_core_agrees_with_cyclotomic_lifts(system):
    a, b = system
    rank, kernel, sol = mat_rank(a), mat_nullspace(a), mat_solve(a, b)
    assert len(kernel) == len(a[0]) - rank
    for v in kernel:
        assert all(isinstance(x, Fraction) for x in v)
        assert mat_vec(a, v) == (0,) * len(a)
    if sol is not None:
        assert mat_vec(a, sol) == b
    for n in (3, 12):
        up = lift(a, n)
        assert mat_rank(up) == rank
        assert mat_nullspace(up) == kernel  # CycQ equals Fraction entrywise
        up_sol = mat_solve(up, lift((b,), n)[0])
        assert (up_sol is None) == (sol is None)
        if sol is not None:
            assert up_sol == sol
        if len(a) == len(a[0]):
            assert mat_det(up) == mat_det(a)


@EXAMPLES
@given(square_matrices)
def test_inverse_exists_exactly_when_det_is_nonzero(a):
    det = mat_det(a)
    assert isinstance(det, Fraction) and det == leibniz_det(a)
    if det == 0:
        with pytest.raises(ValueError):
            mat_inverse(a)
        return
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == mat_identity(len(a))
    assert mat_mul(inv, a) == mat_identity(len(a))
    assert mat_det(inv) * det == 1


@EXAMPLES
@given(st.tuples(*[st.tuples(*[st.integers(0, 2)] * 4)] * 4))
def test_det_mod_three_detects_bases_of_f3_4(vectors):
    combos = {tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % 3 for i in range(4))
              for coeffs in itertools.product(range(3), repeat=4)}
    assert (mat_det(vectors) % 3 != 0) == (len(combos) == 81)


@EXAMPLES
@given(square_matrices, st.data())
def test_float_entries_are_rejected(a, data):
    i = data.draw(st.integers(0, len(a) - 1))
    j = data.draw(st.integers(0, len(a) - 1))
    x = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    for field in (Fraction, CycQ.rational):
        bad = tuple(tuple(x if (r, c) == (i, j) else field(v) for c, v in enumerate(row))
                    for r, row in enumerate(a))
        for entry_point in (mat_rank, mat_nullspace, mat_inverse, mat_det,
                            lambda m: mat_solve(m, (0,) * len(m))):
            with pytest.raises(TypeError):
                entry_point(bad)
    with pytest.raises(TypeError):
        mat_solve(a, (x,) + (0,) * (len(a) - 1))


RATIONAL = st.builds(Fraction, SMALL, st.integers(1, 6))


@st.composite
def rational_systems(draw):
    """A small matrix of Fractions and a right-hand side of matching length."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = tuple(tuple(draw(RATIONAL) for _ in range(cols)) for _ in range(rows))
    return a, tuple(draw(RATIONAL) for _ in range(rows))


@EXAMPLES
@given(rational_systems())
def test_fraction_rows_are_scaled_to_integers_exactly(system):
    a, b = system
    rank, kernel, sol = mat_rank(a), mat_nullspace(a), mat_solve(a, b)
    assert len(kernel) == len(a[0]) - rank
    for v in kernel:
        assert all(isinstance(x, Fraction) for x in v)
        assert mat_vec(a, v) == (0,) * len(a)
    if sol is not None:
        assert mat_vec(a, sol) == b
    up = lift(a, 3)
    assert mat_rank(up) == rank
    assert mat_nullspace(up) == kernel
    up_sol = mat_solve(up, lift((b,), 3)[0])
    assert (up_sol is None) == (sol is None)
    if sol is not None:
        assert up_sol == sol
    if len(a) == len(a[0]):
        det = mat_det(a)
        assert isinstance(det, Fraction) and det == leibniz_det(a) == mat_det(up)
        if det:
            assert mat_mul(a, mat_inverse(a)) == mat_identity(len(a))


def outer_fraction_calls(fn, *args) -> tuple[object, list[str]]:
    """fn(*args), and the names of the calls into fractions.py that it makes
    from outside fractions.py."""
    path, calls = sys.modules["fractions"].__file__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path \
                and frame.f_back.f_code.co_filename != path:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(None)


def test_integer_matrices_are_eliminated_without_fractions():
    rng = random.Random(3)
    for k in (2, 8, 15):
        full = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(k))
        low = full[:-1] + (tuple(x - 2 * y for x, y in zip(full[0], full[-2])),)
        for a in (full, low):
            rank, calls = outer_fraction_calls(mat_rank, a)
            assert calls == [] and rank == k - (a is low)
            det, calls = outer_fraction_calls(mat_det, a)
            assert calls == ["__new__"] and isinstance(det, Fraction)  # the value returned
            assert (det == 0) == (a is low)
            if k < 15:
                assert det == mat_det(lift(a, 3))


# ---------------------------------------------------------------------------
# the integer-numerator CycQ against the Fraction-tuple reference it replaced


class RefCycQ:
    """The former CycQ: phi(n) Fractions, inverted by extended Euclid."""

    def __init__(self, n, coeffs):
        assert len(coeffs) == euler_phi(n)
        self.n, self.c = n, tuple(Fraction(x) for x in coeffs)

    @staticmethod
    def from_exponents(n, pairs):
        phi = euler_phi(n)
        fold = [-c for c in cyclotomic_poly(n)[:phi]]
        rows = [[int(i == e) for i in range(phi)] for e in range(phi)]
        for _ in range(phi, n):
            carry = rows[-1][-1]
            rows.append([s + carry * f for s, f in zip([0] + rows[-1][:-1], fold)])
        acc = [Fraction(0)] * phi
        for e, coeff in pairs:
            for i in range(phi):
                acc[i] += Fraction(coeff) * rows[e % n][i]
        return RefCycQ(n, acc)

    def embed(self, m):
        step = m // self.n
        return RefCycQ.from_exponents(m, ((i * step, c) for i, c in enumerate(self.c)))

    def conjugate(self):
        return RefCycQ.from_exponents(self.n, ((-i, c) for i, c in enumerate(self.c)))

    def _join(self, other):
        m = lcm(self.n, other.n)
        return self.embed(m), other.embed(m)

    def __add__(self, other):
        a, b = self._join(other)
        return RefCycQ(a.n, [x + y for x, y in zip(a.c, b.c)])

    def __sub__(self, other):
        a, b = self._join(other)
        return RefCycQ(a.n, [x - y for x, y in zip(a.c, b.c)])

    def __mul__(self, other):
        a, b = self._join(other)
        return RefCycQ.from_exponents(a.n, ((i + j, x * y) for i, x in enumerate(a.c)
                                           for j, y in enumerate(b.c)))

    def __eq__(self, other):
        a, b = self._join(other)
        return a.c == b.c

    def invert(self):
        # extended Euclid for self (as a polynomial) against Phi_n over Q
        r0, r1 = [Fraction(c) for c in cyclotomic_poly(self.n)], list(self.c)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while len(r1) > 1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s
        inv = [x / r1[0] for x in s1]
        return RefCycQ.from_exponents(self.n, enumerate(inv))


def _poly_divmod(num, den):
    num, d = list(num), len(den) - 1
    quot = [Fraction(0)] * max(len(num) - d, 1)
    for i in range(len(num) - 1, d - 1, -1):
        q = num[i] / den[-1]
        quot[i - d] = q
        for j, dj in enumerate(den):
            num[i - d + j] -= q * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


CONDUCTORS = (1, 2, 3, 4, 6, 8, 12, 24)
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def cyclotomic_values(draw):
    """A conductor and phi(n) rational coefficients over its power basis."""
    n = draw(st.sampled_from(CONDUCTORS))
    return n, draw(st.lists(RATIONALS, min_size=euler_phi(n), max_size=euler_phi(n)))


def assert_same(value, ref):
    assert (value.n, value.c) == (ref.n, ref.c)
    assert all(type(x) is int for x in value.num)
    assert type(value.den) is int and value.den > 0
    assert gcd(value.den, *value.num) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cyclotomic_values(), cyclotomic_values(), st.sampled_from(CONDUCTORS))
def test_cycq_matches_the_fraction_reference(x, y, m):
    a, b, ra, rb = CycQ(*x), CycQ(*y), RefCycQ(*x), RefCycQ(*y)
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(a.conjugate(), ra.conjugate())
    assert_same(a.embed(lcm(a.n, m)), ra.embed(lcm(a.n, m)))
    if ra.c != (0,) * len(ra.c):
        assert_same(a.invert(), ra.invert())
        assert a * a.invert() == 1
    assert (a == b) == (ra == rb)
    assert (a + b) - b == a and a.embed(lcm(a.n, m)) == a
