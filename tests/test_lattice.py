import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from triform.exact import CycQ, OMEGA
from triform.fqm import paper_module, reflect, type_of
from triform.lattice import (
    DiscriminantData,
    LatticeError,
    LatticeSpec,
    RootError,
    alt_spec,
    discriminant_form,
    inner,
    iota_apply,
    milgram_signature,
    paper_spec,
    preset,
    reflection_minus_one,
    smith_normal_form,
    trireflection,
)

SPEC = paper_spec()
E = [tuple(1 if i == j else 0 for i in range(8)) for j in range(8)]


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
    assert preset("paper").name == "paper"
    assert preset("alt-decomposition").iota is None
    with pytest.raises(LatticeError):
        preset("nope")


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
    assert iso(r) == tuple(-v for v in r)
    assert data.induced_map(iso) == reflect(m, alpha).matrix


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


def test_discriminant_form_of_alt_preset():
    data = discriminant_form(alt_spec())
    assert data.module.orders == (3, 3, 3, 3)
    assert data.module.q_histogram() == {
        Fraction(0): 21, Fraction(2, 3): 30, Fraction(4, 3): 30}


def test_milgram_signatures():
    hex_only = LatticeSpec("hex", ((2, -1), (-1, 2)))
    assert milgram_signature(discriminant_form(hex_only).module) == 2
    assert milgram_signature(discriminant_form(SPEC).module) == 4
    assert milgram_signature(discriminant_form(alt_spec()).module) == 4
    assert milgram_signature(paper_module()) == 4


def test_smith_normal_form_seeded():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(2, 5)
        mat = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        d, u, v = smith_normal_form(mat)
        du = np.array(u, dtype=object) @ np.array(mat, dtype=object) @ np.array(v, dtype=object)
        assert (du == np.array(d, dtype=object)).all()
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
        assert all(b == 0 for a, b in zip(diag, diag[1:]) if a == 0)


def test_dual_digits_round_trip():
    data = discriminant_form(SPEC)
    m = data.module
    for x in m.elements():
        c = [Fraction(0)] * 8
        for digit, gen in zip(x, data.generators):
            c = [a + digit * b for a, b in zip(c, gen)]
        assert data.digits(tuple(c)) == x
