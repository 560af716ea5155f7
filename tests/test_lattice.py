import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from test_fqm import valid_modules
from triform.exact import OMEGA, CycQ, dot, mat_mul, mat_vec
from triform.fqm import paper_module, reflect, type_of
from triform.lattice import (
    DiscriminantData,
    LatticeError,
    LatticeSpec,
    MilgramError,
    RootError,
    _sqrt_exact,
    alt_spec,
    discriminant_form,
    iota_apply,
    milgram_signature,
    paper_spec,
    reflection_minus_one,
    trireflection,
)

SPEC = paper_spec()
E = [tuple(1 if i == j else 0 for i in range(8)) for j in range(8)]


def _numerators(v) -> tuple[tuple[int, ...], int]:
    """A rational vector as integer numerators over its least common denominator."""
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def inner(spec: LatticeSpec, x, y) -> Fraction:
    """<x, y> = x G y for rational vectors, as one Fraction."""
    (nx, dx), (ny, dy) = _numerators(x), _numerators(y)
    return Fraction(dot(ny, mat_vec(spec.gram, nx)), dx * dy)


def _vector(generator) -> tuple[Fraction, ...]:
    """The dual vector n / d of a generator pair (n, d), as Fractions."""
    num, d = generator
    return tuple(Fraction(v, d) for v in num)


def hermitian_value(spec: LatticeSpec, x, y) -> CycQ:
    """The hermitian form refining the bilinear one, an oracle for iota and G.

    h(x, y) = (1/2) { <x, y> - ((2w+1)/3) <2 iota(x) + x, y> } with w a
    primitive cube root of unity; linear in x against w-scaling by iota,
    conjugate-linear in y, and h(x, x) = <x, x> / 2.
    """
    ix = iota_apply(spec, x)
    t1 = inner(spec, x, y)
    t2 = inner(spec, tuple(2 * a + b for a, b in zip(ix, x)), y)
    s = 1 + 2 * OMEGA  # a square root of -3
    return Fraction(1, 2) * t1 - Fraction(t2, 6) * s


def test_presets():
    assert paper_spec().name == "paper"
    assert alt_spec().name == "alt-decomposition" and alt_spec().iota is None


def test_spec_validation_rejects_bad_data():
    with pytest.raises(LatticeError):
        LatticeSpec("odd", ((1,),))
    with pytest.raises(LatticeError):
        LatticeSpec("degenerate", ((0, 0), (0, 0)))
    with pytest.raises(LatticeError):  # identity is not an allowed isometry
        LatticeSpec("triv", ((2, -1), (-1, 2)), ((1, 0), (0, 1)))
    with pytest.raises(LatticeError):  # order-2 map
        LatticeSpec("inv", ((2, -1), (-1, 2)), ((0, 1), (1, 0)))


def test_inner_products():
    assert inner(SPEC, E[0], E[0]) == 2
    assert inner(SPEC, E[2], E[2]) == -2
    assert inner(SPEC, E[2], E[3]) == 1
    assert inner(SPEC, E[0], E[2]) == 0


def test_iota_has_no_fixed_vectors_and_preserves_form():
    rng = random.Random(11)
    for _ in range(20):
        x = tuple(rng.randint(-5, 5) for _ in range(8))
        y = tuple(rng.randint(-5, 5) for _ in range(8))
        ix, iy = iota_apply(SPEC, x), iota_apply(SPEC, y)
        assert inner(SPEC, ix, iy) == inner(SPEC, x, y)
        if any(x):
            assert ix != x
        # order 3
        assert iota_apply(SPEC, iota_apply(SPEC, ix)) == x


def test_hermitian_model_values():
    # negative-block generator has hermitian norm -1, positive has +1
    assert hermitian_value(SPEC, E[2], E[2]) == -1
    assert hermitian_value(SPEC, E[0], E[0]) == 1
    # the isometry acts as multiplication by w on the left slot
    r = E[2]
    assert hermitian_value(SPEC, iota_apply(SPEC, r), r) == OMEGA * -1


def test_hermitian_sesquilinearity_seeded():
    rng = random.Random(2026)
    for _ in range(25):
        x = tuple(rng.randint(-4, 4) for _ in range(8))
        y = tuple(rng.randint(-4, 4) for _ in range(8))
        h = hermitian_value(SPEC, x, y)
        assert hermitian_value(SPEC, iota_apply(SPEC, x), y) == OMEGA * h
        assert hermitian_value(SPEC, x, iota_apply(SPEC, y)) == OMEGA.conjugate() * h
        assert hermitian_value(SPEC, y, x) == h.conjugate()
        # values lie in the hexagonal integer ring
        assert all(c.denominator == 1 for c in h.c)
        assert 2 * hermitian_value(SPEC, x, x) == inner(SPEC, x, x)


def test_hermitian_matches_complex_eigenprojection():
    # numeric sanity check of the ball model: h(x, x) equals the bilinear
    # form evaluated on the omega-eigenprojection of x against its conjugate
    iota = np.array(SPEC.iota, dtype=float)
    g = np.array(SPEC.gram, dtype=float)
    w = np.exp(2j * np.pi / 3)
    proj = (iota - np.conj(w) * np.eye(8)) / (w - np.conj(w))
    rng = random.Random(17)
    for _ in range(20):
        x = np.array([rng.randint(-6, 6) for _ in range(8)], dtype=float)
        z = proj @ x
        got = z @ g @ np.conj(z)
        expected = complex(Fraction(hermitian_value(SPEC, tuple(int(v) for v in x),
                                                    tuple(int(v) for v in x)).as_fraction()))
        assert abs(got - expected) <= 1e-9 * (1 + abs(expected))


def test_trireflection_order_three_and_trivial_on_discriminant():
    data = discriminant_form(SPEC)
    for r in (E[2], E[4], E[6]):
        iso = trireflection(SPEC, r)
        m = np.array(iso.matrix, dtype=object)
        m3 = m @ m @ m
        assert (m3 == np.eye(8, dtype=object)).all()
        assert (m != np.eye(8, dtype=object)).any()
        assert data.induced_map(iso) == tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4))


def test_trireflection_rejects_wrong_norm():
    with pytest.raises(RootError):
        trireflection(SPEC, E[0])  # norm +2
    with pytest.raises(RootError):
        trireflection(SPEC, (0, 0, 1, 0, 1, 0, 0, 0))  # norm -4


def test_short_root_reflection_is_minus_one_on_its_block():
    iso = reflection_minus_one(SPEC, E[2])
    expected = [[0] * 8 for _ in range(8)]
    for i in range(8):
        expected[i][i] = -1 if i in (2, 3) else 1
    assert iso.matrix == tuple(tuple(row) for row in expected)


def test_short_root_induces_negative_class_reflection():
    data = discriminant_form(SPEC)
    m = paper_module()
    r = E[2]
    alpha = data.vector_class(r)
    assert alpha == (0, 2, 0, 0)
    assert m.q(alpha) == Fraction(4, 3)  # the -2/3 class
    assert type_of(m, alpha) == "2"
    induced = data.induced_map(reflection_minus_one(SPEC, r))
    assert induced == reflect(m, alpha).matrix


def test_long_root_induces_type_one_reflection():
    data = discriminant_form(SPEC)
    m = paper_module()
    r = (0, 0, 1, 0, 1, 0, 0, 0)
    assert inner(SPEC, r, r) == -4
    alpha = data.vector_class(r)
    assert alpha == (0, 2, 2, 0)
    assert m.q(alpha) == Fraction(2, 3)  # the -4/3 class
    assert type_of(m, alpha) == "1"
    iso = reflection_minus_one(SPEC, r)
    assert mat_vec(iso.matrix, r) == tuple(-v for v in r)
    assert data.induced_map(iso) == reflect(m, alpha).matrix


def test_reflection_minus_one_negates_r_and_iota_r_and_is_an_involution():
    # the facts its former runtime checks asserted, on every root with entries in
    # {-1, 0, 1} in the negative blocks: the 18 short and the 108 long ones
    roots = [r for r in itertools.product(range(-1, 2), repeat=8)
             if not any(r[:2]) and dot(r, mat_vec(SPEC.gram, r)) in (-2, -4)]
    assert len(roots) == 126
    identity = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    for r in roots:
        m, ir = reflection_minus_one(SPEC, r).matrix, iota_apply(SPEC, r)
        assert mat_vec(m, r) == tuple(-v for v in r)
        assert mat_vec(m, ir) == tuple(-v for v in ir)
        assert mat_mul(m, m) == identity


def test_root_enumeration_in_box():
    g = np.array(SPEC.gram, dtype=np.int64)
    coords = np.array(list(itertools.product(range(-2, 3), repeat=8)), dtype=np.int64)
    norms = np.einsum("ij,jk,ik->i", coords, g, coords)

    def blocks_used(r):
        return [b for b in range(4) if any(r[2 * b:2 * b + 2])]

    short = [tuple(int(v) for v in r) for r in coords[norms == -2]
             if blocks_used(r) and set(blocks_used(r)) <= {1, 2, 3}
             and len(blocks_used(r)) == 1]
    assert len(short) == 18  # six per negative block
    two_block = [tuple(int(v) for v in r) for r in coords[norms == -4]
                 if set(blocks_used(r)) <= {1, 2, 3} and len(blocks_used(r)) == 2]
    assert len(two_block) == 108
    data = discriminant_form(SPEC)
    m = paper_module()
    rng = random.Random(4)
    for r in rng.sample(two_block, 12) + short[:6]:
        iso = reflection_minus_one(SPEC, r)
        alpha = data.vector_class(r)
        assert data.induced_map(iso) == reflect(m, alpha).matrix


def test_discriminant_form_of_main_preset_matches_module():
    data = discriminant_form(SPEC)
    assert data.module == paper_module()
    # the isometry induces the identity on the discriminant group
    from triform.lattice import Isometry
    assert data.induced_map(Isometry(SPEC, SPEC.iota)) == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4))


def test_an_isometry_must_preserve_the_form():
    from triform.lattice import Isometry
    with pytest.raises(LatticeError, match="does not preserve the form"):
        Isometry(SPEC, tuple(tuple(2 * (i == j) for j in range(8)) for i in range(8)))


def test_discriminant_form_of_alt_preset():
    data = discriminant_form(alt_spec())
    assert data.generators == (
        ((0, 0, 0, 1, 0, 0, 0, 0), 3), ((0, 0, 0, 0, 1, 2, 0, 0), 3),
        ((0, 0, 1, 0, 0, 0, 0, 0), 3), ((0, 0, 0, 0, 0, 0, 1, 2), 3))
    assert data.module.orders == (3, 3, 3, 3)
    assert data.module.q_histogram() == {
        Fraction(0): 21, Fraction(2, 3): 30, Fraction(4, 3): 30}


# <2> + <4>: L*/L = Z/2 x Z/4 on (1/2, 0) and (1/2, 1/4), which pair to 1/2
MIXED = LatticeSpec("mixed", ((2, 0), (0, 4)), None, (((1, 0), 2), ((2, 1), 4)))


@pytest.mark.parametrize("spec", [SPEC, alt_spec(), MIXED], ids=["paper", "alt", "mixed"])
def test_the_integer_pairings_match_the_fraction_inner_products(spec):
    data = discriminant_form(spec)
    gens = list(map(_vector, spec.dual_generators))
    assert data.module.orders == tuple(d for _, d in spec.dual_generators)
    q, b, den = data.module.numerators
    assert all(type(v) is int for v in (den, *q, *itertools.chain(*b)))
    assert tuple(Fraction(v, den) for v in q) == tuple(inner(spec, c, c) % 2 for c in gens)
    assert tuple(tuple(Fraction(v, den) for v in row) for row in b) == tuple(
        tuple(inner(spec, c1, c2) % 1 for c2 in gens) for c1 in gens)


_GENS = paper_spec().dual_generators


@pytest.mark.parametrize("gens, message", [
    ((_GENS[0], _GENS[0], _GENS[2], _GENS[3]),       # a duplicate: two classes collide
     "two digit combinations of the generators agree mod L"),
    ((((1,) + (0,) * 7, 3),) + _GENS[1:],            # outside the dual lattice
     f"{(Fraction(1, 3),) + (Fraction(0),) * 7} is not in the dual lattice"),
    (_GENS[:3],                                      # 27 classes, |det| = 81
     "generator orders (3, 3, 3) give 27 classes, |det| = 81"),
    (None, "lattice 'paper' names no dual generators"),
    (((tuple(2 * v for v in _GENS[0][0]), 6),) + _GENS[1:],  # 2n / 6: order 3, not 6
     "dual generator (4, 2, 0, 0, 0, 0, 0, 0) / 6 is not in lowest terms with d > 0"),
    ((((2, 1, 0, 0, 0, 0, 0, 0), -3),) + _GENS[1:],
     "dual generator (2, 1, 0, 0, 0, 0, 0, 0) / -3 is not in lowest terms with d > 0"),
], ids=["duplicated", "outside-dual", "three-only", "none", "unreduced", "negative"])
def test_the_certificate_rejects_bad_dual_generators(gens, message):
    with pytest.raises(LatticeError) as info:
        discriminant_form(LatticeSpec(SPEC.name, SPEC.gram, SPEC.iota, gens))
    assert str(info.value) == message


def test_milgram_signatures():
    hex_only = LatticeSpec("hex", ((2, -1), (-1, 2)), None, (((1, 2), 3),))
    assert milgram_signature(discriminant_form(hex_only).module) == 2
    assert milgram_signature(discriminant_form(SPEC).module) == 4
    assert milgram_signature(discriminant_form(alt_spec()).module) == 4
    assert milgram_signature(paper_module()) == 4


def test_dual_digits_round_trip():
    data = discriminant_form(SPEC)
    m = data.module
    for x in m.elements():
        c = [Fraction(0)] * 8
        for digit, gen in zip(x, data.generators):
            c = [a + digit * b for a, b in zip(c, _vector(gen))]
        assert data.digits(*_numerators(c)) == x


def test_inner_matches_fraction_sums_seeded():
    rng = random.Random(8)
    for spec in (SPEC, alt_spec()):
        for _ in range(30):
            x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8))
            y = tuple(rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-9, 9), 3)))
                      for _ in range(8))
            gx = [sum(Fraction(g) * v for g, v in zip(row, x)) for row in spec.gram]
            assert inner(spec, x, y) == sum(Fraction(a) * b for a, b in zip(y, gx))
            assert type(inner(spec, x, y)) is Fraction


def test_digits_reads_classes_mod_l_and_rejects_non_dual_vectors():
    data = discriminant_form(SPEC)
    rng = random.Random(5)
    for x in rng.sample(data.module.elements(), 12):
        gens = list(map(_vector, data.generators))
        c = [sum(d * g[k] for d, g in zip(x, gens)) for k in range(8)]
        shifted = tuple(a + rng.randint(-3, 3) for a in c)  # the same class mod L
        assert data.digits(*_numerators(shifted)) == x
    third, half = Fraction(1, 3), Fraction(1, 2)
    for num, d, c in (((1,) + (0,) * 7, 3, (third,) + (0,) * 7),
                      ((2, 2) + (0,) * 6, 4, (half, half) + (0,) * 6),
                      ((3,) * 7, 3, (1,) * 7)):  # one entry short of the rank
        with pytest.raises(LatticeError) as info:
            data.digits(num, d)  # rendered as the rational vector, in lowest terms
        assert str(info.value) == f"{tuple(map(Fraction, c))} is not in the dual lattice"


def milgram_by_elements(module) -> int:
    """The Gauss sum with one CycQ term per element: the former milgram_signature."""
    total = CycQ.rational(0)
    for x in module.elements():
        half = module.q(x) / 2
        total = total + CycQ.from_exponents(half.denominator, [(half.numerator, 1)])
    ratio = total / _sqrt_exact(module.order())
    for s in range(8):
        if ratio == CycQ.from_exponents(8, [(s, 1)]):
            return s
    raise MilgramError(f"gauss-sum ratio {ratio!r} is not an eighth root of unity")


def _outcome(signature, module):
    try:
        return signature(module)
    except MilgramError:
        return "MilgramError"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_modules())
@example(discriminant_form(SPEC).module)
@example(discriminant_form(alt_spec()).module)
@example(discriminant_form(LatticeSpec("hex", ((2, -1), (-1, 2)), None, (((1, 2), 3),))).module)
def test_milgram_from_the_histogram_matches_the_element_sum(module):
    assert _outcome(milgram_signature, module) == _outcome(milgram_by_elements, module)
