"""Even lattices with an order-3 isometry and their discriminant forms.

The main preset is the signature (2, 6) lattice built from four hexagonal
planes (one positive, three negative), with the isometry acting blockwise
as the rotation of order 3.  The second preset realizes the same
discriminant form from a different signature to cross-check that only the
finite data matters downstream.  Each preset names rational generators of
its discriminant group L*/L, and `discriminant_form` certifies them
(membership in L*, distinct classes, |det G| of them) rather than
searching for generators.

Conventions: vectors are tuples of ints in basis coordinates; a dual vector
n / d is the pair (n, d), d > 0 and in lowest terms, and becomes Fractions
only where it is printed.  Matrices act on the left, x -> M x; the Gram
matrix G gives <x, y> = x G y.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (
    CycQ,
    dot,
    mat_det,
    mat_identity,
    mat_mul,
    mat_scalar,
    mat_sub,
    mat_transpose,
    mat_vec,
)
from .fqm import QuadraticModule

HEX_BLOCK = ((2, -1), (-1, 2))
ROTATION_BLOCK = ((0, -1), (1, -1))  # order 3, no fixed vectors


class LatticeError(ValueError):
    pass


class RootError(ValueError):
    pass


class MilgramError(ValueError):
    pass


IntMatrix = tuple


def _block_diag(blocks: Sequence[Sequence[Sequence[int]]]) -> IntMatrix:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    ofs = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[ofs + i][ofs + j] = v
        ofs += len(b)
    return tuple(tuple(row) for row in out)


class LatticeSpec:
    """An even lattice, optionally with a fixed-point-free order-3 isometry.

    `dual_generators` are pairs (n, d), the ambient rational vectors n / d,
    one per cyclic factor of L*/L, in the order the module's digits follow;
    discriminant_form certifies them.
    """

    __slots__ = ("name", "gram", "iota", "dual_generators")

    def __init__(self, name: str, gram: IntMatrix, iota: IntMatrix | None = None,
                 dual_generators: tuple | None = None):
        self.name, self.gram, self.iota, self.dual_generators = name, gram, iota, dual_generators
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise LatticeError("gram matrix must be square")
        if self.gram != mat_transpose(self.gram):
            raise LatticeError("gram matrix must be symmetric")
        if any(self.gram[i][i] % 2 for i in range(n)):
            raise LatticeError("lattice must be even")
        if mat_det(self.gram) == 0:
            raise LatticeError("lattice must be nondegenerate")
        if self.iota is not None:
            i3 = mat_mul(self.iota, mat_mul(self.iota, self.iota))
            if i3 != mat_identity(n):
                raise LatticeError("isometry must have order dividing 3")
            if self.iota == mat_identity(n):
                raise LatticeError("isometry must be nontrivial")
            if mat_mul(mat_transpose(self.iota), mat_mul(self.gram, self.iota)) != self.gram:
                raise LatticeError("iota does not preserve the form")
            if mat_det(mat_sub(self.iota, mat_identity(n))) == 0:
                raise LatticeError("iota must act without nonzero fixed vectors")

    @property
    def rank(self) -> int:
        return len(self.gram)


def _thirds(*numerators: int) -> tuple:
    return numerators, 3


def paper_spec() -> LatticeSpec:
    """Four hexagonal planes, signs (+, -, -, -), blockwise rotation."""
    gram = _block_diag([HEX_BLOCK, mat_scalar(-1, HEX_BLOCK),
                        mat_scalar(-1, HEX_BLOCK), mat_scalar(-1, HEX_BLOCK)])
    iota = _block_diag([ROTATION_BLOCK] * 4)
    duals = (_thirds(2, 1, 0, 0, 0, 0, 0, 0), _thirds(0, 0, 2, 1, 0, 0, 0, 0),
             _thirds(0, 0, 0, 0, 2, 1, 0, 0), _thirds(0, 0, 0, 0, 0, 0, 2, 1))
    return LatticeSpec("paper", gram, iota, duals)


def alt_spec() -> LatticeSpec:
    """Hyperbolic plane + rescaled hyperbolic plane + two hexagonal planes."""
    u = ((0, 1), (1, 0))
    gram = _block_diag([u, mat_scalar(3, u), HEX_BLOCK, HEX_BLOCK])
    # the generators, in order, that a Smith form of G yields; the outputs follow it
    duals = (_thirds(0, 0, 0, 1, 0, 0, 0, 0), _thirds(0, 0, 0, 0, 1, 2, 0, 0),
             _thirds(0, 0, 1, 0, 0, 0, 0, 0), _thirds(0, 0, 0, 0, 0, 0, 1, 2))
    return LatticeSpec("alt-decomposition", gram, None, duals)


def iota_apply(spec: LatticeSpec, x):
    if spec.iota is None:
        raise LatticeError(f"preset {spec.name!r} carries no isometry")
    return mat_vec(spec.iota, x)


class Isometry:
    """A matrix that preserves the Gram matrix of `spec`, checked on construction."""

    __slots__ = ("matrix",)

    def __init__(self, spec: LatticeSpec, matrix: IntMatrix):
        g = spec.gram
        if mat_mul(mat_transpose(matrix), mat_mul(g, matrix)) != g:
            raise LatticeError("matrix does not preserve the form")
        self.matrix = matrix


def trireflection(spec: LatticeSpec, r) -> Isometry:
    """The order-3 isometry s_r s_{iota r} attached to a norm -2 vector.

    x -> x + <x,r> r + <x, iota r> r + <x, iota r> iota r.  Trivial on the
    discriminant group.
    """
    gr = mat_vec(spec.gram, r)
    if (norm := dot(r, gr)) != -2:
        raise RootError(f"expected <r, r> = -2, got {norm}")
    ir = iota_apply(spec, r)
    n = spec.rank
    gir = mat_vec(spec.gram, ir)
    return Isometry(spec, tuple(
        tuple(int(i == j) + r[i] * gr[j] + r[i] * gir[j] + ir[i] * gir[j] for j in range(n))
        for i in range(n)))


def reflection_minus_one(spec: LatticeSpec, r) -> Isometry:
    """The involution (reflection in r) x (-1 on the hermitian line of r).

    Defined for <r, r> = -2 (coefficient 2) and <r, r> = -4 (coefficient 1):
    x -> x + c <(r + 2 iota r)/3, x> iota r + c <(2r + iota r)/3, x> r.
    Needs <r + 2 iota r, x> = 0 mod 3 for all x, which is checked.
    """
    coeff = {-2: 2, -4: 1}.get(norm := dot(r, mat_vec(spec.gram, r)))
    if coeff is None:
        raise RootError(f"expected <r, r> in (-2, -4), got {norm}")
    ir = iota_apply(spec, r)
    u = tuple(a + 2 * b for a, b in zip(r, ir))
    w = tuple(2 * a + b for a, b in zip(r, ir))
    gu = mat_vec(spec.gram, u)
    gw = mat_vec(spec.gram, w)
    if any(v % 3 for v in gu) or any(v % 3 for v in gw):
        raise RootError(f"{r}: pairing with (r + 2 iota r)/3 is not integral")
    gu3 = tuple(v // 3 for v in gu)
    gw3 = tuple(v // 3 for v in gw)
    n = spec.rank
    # LatticeSpec certified iota^3 = 1 with iota - 1 invertible, so 1 + iota + iota^2 = 0
    # and <r, iota r> = -N/2 for N = <r, r>.  Then r -> (1 + c N/2) r = -r and
    # iota r -> -iota r, and the map fixes span(r, iota r)^perp, a complement as
    # the Gram [[N, -N/2], [-N/2, N]] has det 3 N^2 / 4 != 0: an involution
    return Isometry(spec, tuple(
        tuple(int(i == j) + coeff * ir[i] * gu3[j] + coeff * r[i] * gw3[j] for j in range(n))
        for i in range(n)))


# ---------------------------------------------------------------------------
# discriminant machinery


class DiscriminantData(NamedTuple):
    """The finite quadratic module of a lattice plus ambient generators."""

    spec: LatticeSpec
    module: QuadraticModule
    generators: tuple  # (n, d) pairs, the ambient vectors n / d, one per cyclic factor
    classes: dict  # class mod L (numerators over lcm(orders), reduced) -> digits

    def digits(self, num, d: int) -> tuple[int, ...]:
        """Coordinates over the generators of the class of the dual vector num / d."""
        if len(num) != self.spec.rank or any(v % d for v in mat_vec(self.spec.gram, num)):
            raise LatticeError(f"{tuple(Fraction(v, d) for v in num)} is not in the dual lattice")
        # discriminant_form certified |det G| distinct classes, so they are all of
        # L*/L, of exponent den; num / d is in L*, so den num / d is integral and
        # its class is a key
        den = math.lcm(*self.module.orders)
        return self.classes[tuple(v * den // d % den for v in num)]

    def vector_class(self, r) -> tuple[int, ...]:
        """Digits of the class of (r + 2 iota r)/3; needs the isometry."""
        ir = iota_apply(self.spec, r)
        return self.digits(tuple(a + 2 * b for a, b in zip(r, ir)), 3)

    def induced_map(self, iso: Isometry):
        """The matrix over F_3 (or Z/d) induced on the module by an isometry."""
        cols = [self.digits(mat_vec(iso.matrix, num), d) for num, d in self.generators]
        return tuple(zip(*cols))


def discriminant_form(spec: LatticeSpec) -> DiscriminantData:
    """The discriminant quadratic module L*/L on the spec's dual generators.

    The generators are certified, not searched for: each n / d lies in L*
    and is in lowest terms, so its order is d; there are |det G| digit
    combinations, and they are pairwise distinct mod L, so digits -> class
    is an isomorphism onto L*/L.  Raises LatticeError otherwise, and when
    the spec names no generators.
    """
    if spec.dual_generators is None:
        raise LatticeError(f"lattice {spec.name!r} names no dual generators")
    gens = spec.dual_generators
    images = tuple(mat_vec(spec.gram, num) for num, _ in gens)  # G n, which d divides
    for (num, d), gn in zip(gens, images):
        if d < 1 or math.gcd(d, *num) != 1:
            raise LatticeError(f"dual generator {num} / {d} is not in lowest terms with d > 0")
        if len(num) != spec.rank or any(v % d for v in gn):
            raise LatticeError(f"{tuple(Fraction(v, d) for v in num)} is not in the dual lattice")
    orders = tuple(d for _, d in gens)
    expected = abs(mat_det(spec.gram))
    if math.prod(orders) != expected:
        raise LatticeError(
            f"generator orders {orders} give {math.prod(orders)} classes, |det| = {expected}")
    # combinations compared as integer numerators over the common denominator
    den = math.lcm(*orders)
    cols = tuple(zip(*(tuple(v * (den // d) for v in num) for num, d in gens)))
    classes = {tuple(sum(d * v for d, v in zip(combo, col)) % den for col in cols): combo
               for combo in itertools.product(*(range(m) for m in orders))}
    if len(classes) != expected:
        raise LatticeError("two digit combinations of the generators agree mod L")
    # <n_i / d_i, n_j / d_j> = n_j G n_i over d_i d_j, each an integer numerator over den^2
    pairs = [[dot(m, gn) for m, _ in gens] for gn in images]
    scale = [den // d for d in orders]
    q = tuple(row[i] % (2 * d * d) * s * s
              for i, (row, d, s) in enumerate(zip(pairs, orders, scale)))
    b = tuple(tuple(p % (d * e) * s * t for p, e, t in zip(row, orders, scale))
              for row, d, s in zip(pairs, orders, scale))
    return DiscriminantData(spec, QuadraticModule(orders, q, b, den * den), gens, classes)


# ---------------------------------------------------------------------------
# Milgram signature


def _sqrt_exact(n: int) -> CycQ:
    """An exact square root of a positive integer, as a cyclotomic value."""
    s, f = 1, n  # n > 0: the one caller passes the order of a module
    p = 2
    while p * p <= f:
        while f % (p * p) == 0:
            f //= p * p
            s *= p
        p += 1
    out = CycQ.rational(s)
    m = f
    p = 2
    while p <= m:
        if m % p == 0:
            m //= p
            if p == 2:
                out = out * (CycQ.from_exponents(8, [(1, 1), (-1, 1)]))
            else:
                gauss = CycQ.from_exponents(p, [(a * a, 1) for a in range(p)])
                if p % 4 == 3:
                    gauss = gauss * CycQ.from_exponents(4, [(-1, 1)])
                out = out * gauss
        p += 1
    return out


def milgram_signature(module: QuadraticModule) -> int:
    """The residue s mod 8 with sum_x e^(pi i q(x)) = sqrt(|A|) zeta_8^s.

    The sum depends only on the histogram of q, one term per distinct value.
    """
    total = CycQ.rational(0)
    for value, count in module.q_histogram().items():
        half = value / 2
        total = total + CycQ.from_exponents(half.denominator, [(half.numerator, count)])
    ratio = total / _sqrt_exact(module.order())
    for s in range(8):
        if ratio == CycQ.from_exponents(8, [(s, 1)]):
            return s
    raise MilgramError(f"gauss-sum ratio {ratio!r} is not an eighth root of unity")
