"""Even lattices with an order-3 isometry and their discriminant forms.

The main preset is the signature (2, 6) lattice built from four hexagonal
planes (one positive, three negative), with the isometry acting blockwise
as the rotation of order 3.  The second preset realizes the same
discriminant form from a different signature to cross-check that only the
finite data matters downstream.

Conventions: vectors are integer (or Fraction) tuples in basis coordinates;
matrices act on the left, x -> M x; the Gram matrix G gives <x, y> = x G y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    CycQ,
    mat_det,
    mat_identity,
    mat_inverse,
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


@dataclass(frozen=True)
class LatticeSpec:
    """An even lattice, optionally with a fixed-point-free order-3 isometry."""

    name: str
    gram: IntMatrix
    iota: IntMatrix | None = None
    # ambient rational vectors generating the discriminant group, when a
    # preferred coordinate system exists (the blockwise one for the main preset)
    dual_generators: tuple | None = None

    def __post_init__(self):
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


def paper_spec() -> LatticeSpec:
    """Four hexagonal planes, signs (+, -, -, -), blockwise rotation."""
    gram = _block_diag([HEX_BLOCK, mat_scalar(-1, HEX_BLOCK),
                        mat_scalar(-1, HEX_BLOCK), mat_scalar(-1, HEX_BLOCK)])
    iota = _block_diag([ROTATION_BLOCK] * 4)
    w = (Fraction(2, 3), Fraction(1, 3))
    duals = tuple(
        tuple(w[i - 2 * b] if 2 * b <= i < 2 * b + 2 else Fraction(0) for i in range(8))
        for b in range(4)
    )
    return LatticeSpec("paper", gram, iota, duals)


def alt_spec() -> LatticeSpec:
    """Hyperbolic plane + rescaled hyperbolic plane + two hexagonal planes."""
    u = ((0, 1), (1, 0))
    gram = _block_diag([u, mat_scalar(3, u), HEX_BLOCK, HEX_BLOCK])
    return LatticeSpec("alt-decomposition", gram)


_PRESETS = {"paper": paper_spec, "alt-decomposition": alt_spec}


def preset(name: str) -> LatticeSpec:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise LatticeError(f"unknown preset {name!r}; have {sorted(_PRESETS)}") from None


def inner(spec: LatticeSpec, x, y) -> Fraction:
    return sum((Fraction(yi) * v for yi, v in zip(y, mat_vec(spec.gram, x))), Fraction(0))


def iota_apply(spec: LatticeSpec, x):
    if spec.iota is None:
        raise LatticeError(f"preset {spec.name!r} carries no isometry")
    return mat_vec(spec.iota, x)


@dataclass(frozen=True)
class Isometry:
    spec: LatticeSpec
    matrix: IntMatrix

    def __post_init__(self):
        g = self.spec.gram
        if mat_mul(mat_transpose(self.matrix), mat_mul(g, self.matrix)) != g:
            raise LatticeError("matrix does not preserve the form")

    def __call__(self, x):
        return mat_vec(self.matrix, x)


def trireflection(spec: LatticeSpec, r) -> Isometry:
    """The order-3 isometry s_r s_{iota r} attached to a norm -2 vector.

    x -> x + <x,r> r + <x, iota r> r + <x, iota r> iota r.  Trivial on the
    discriminant group.
    """
    if inner(spec, r, r) != -2:
        raise RootError(f"expected <r, r> = -2, got {inner(spec, r, r)}")
    ir = iota_apply(spec, r)
    n = spec.rank
    gr = mat_vec(spec.gram, r)
    gir = mat_vec(spec.gram, ir)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = (1 if i == j else 0) + r[i] * gr[j] + r[i] * gir[j] + ir[i] * gir[j]
            row.append(v)
        rows.append(tuple(row))
    return Isometry(spec, tuple(rows))


def reflection_minus_one(spec: LatticeSpec, r) -> Isometry:
    """The involution (reflection in r) x (-1 on the hermitian line of r).

    Defined for <r, r> = -2 (coefficient 2) and <r, r> = -4 (coefficient 1):
    x -> x + c <(r + 2 iota r)/3, x> iota r + c <(2r + iota r)/3, x> r.
    Needs <r + 2 iota r, x> = 0 mod 3 for all x, which is checked.
    """
    norm = inner(spec, r, r)
    if norm == -2:
        coeff = 2
    elif norm == -4:
        coeff = 1
    else:
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
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = (1 if i == j else 0) + coeff * ir[i] * gu3[j] + coeff * r[i] * gw3[j]
            row.append(v)
        rows.append(tuple(row))
    iso = Isometry(spec, tuple(rows))
    if iso(r) != tuple(-a for a in r):
        raise RootError(f"{r}: construction does not negate the root")
    if mat_mul(iso.matrix, iso.matrix) != mat_identity(n):
        raise RootError(f"{r}: construction is not an involution")
    return iso


# ---------------------------------------------------------------------------
# discriminant machinery


def smith_normal_form(mat) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(D, U, V) with U mat V = D diagonal, U and V unimodular, d_i | d_{i+1}."""
    a = [list(map(int, row)) for row in mat]
    nr, nc = len(a), len(a[0])
    u = [list(row) for row in mat_identity(nr)]
    v = [list(row) for row in mat_identity(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, k):  # row_i += k * row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, k):  # col_i += k * col_j
        for row in a:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t]:
                add_row(i, t, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j]:
                add_col(j, t, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide everything that remains
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    d = tuple(tuple(a[i][j] for j in range(nc)) for i in range(nr))
    return d, tuple(tuple(row) for row in u), tuple(tuple(row) for row in v)


@dataclass(frozen=True)
class DiscriminantData:
    """The finite quadratic module of a lattice plus ambient generators."""

    spec: LatticeSpec
    module: QuadraticModule
    generators: tuple  # ambient rational vectors, one per cyclic factor

    def digits(self, c) -> tuple[int, ...]:
        """Coordinates of the class of a dual vector c over the generators."""
        c = tuple(Fraction(x) for x in c)
        pair = mat_vec(self.spec.gram, c)
        if any(x.denominator != 1 for x in pair):
            raise LatticeError(f"{c} is not in the dual lattice")
        for combo in itertools.product(*(range(m) for m in self.module.orders)):
            diff = list(c)
            for digit, gen in zip(combo, self.generators):
                if digit:
                    diff = [d - digit * g for d, g in zip(diff, gen)]
            if all(x.denominator == 1 for x in diff):
                return combo
        raise LatticeError(f"{c}: no expression over the generators")

    def vector_class(self, r) -> tuple[int, ...]:
        """Digits of the class of (r + 2 iota r)/3; needs the isometry."""
        ir = iota_apply(self.spec, r)
        c = tuple(Fraction(a + 2 * b, 3) for a, b in zip(r, ir))
        return self.digits(c)

    def induced_map(self, iso: Isometry):
        """The matrix over F_3 (or Z/d) induced on the module by an isometry."""
        cols = [self.digits(mat_vec(iso.matrix, g)) for g in self.generators]
        return tuple(zip(*cols))


def discriminant_form(spec: LatticeSpec) -> DiscriminantData:
    """The discriminant quadratic module of an even lattice.

    With preferred dual generators (the blockwise ones of the main preset)
    the module is built directly on them; otherwise generators come from
    the Smith form of the Gram matrix.
    """
    g = spec.gram
    ginv = mat_inverse(g)
    if spec.dual_generators is not None:
        gens = spec.dual_generators
        orders = []
        for c in gens:
            k = 1
            while any((Fraction(x) * k).denominator != 1 for x in c):
                k += 1
            orders.append(k)
        orders = tuple(orders)
    else:
        d, u, _v = smith_normal_form(g)
        uinv = mat_inverse(u)
        n = len(g)
        orders_all = [int(d[i][i]) for i in range(n)]
        gens = []
        orders = []
        for i, di in enumerate(orders_all):
            if di > 1:
                y = tuple(uinv[r][i] for r in range(n))
                if any(x.denominator != 1 for x in y):
                    raise LatticeError("unimodular inverse is not integral")
                c = mat_vec(ginv, y)
                gens.append(c)
                orders.append(di)
        gens = tuple(gens)
        orders = tuple(orders)
    gen_q = tuple(_q_of_dual(spec, c) for c in gens)
    gen_b = tuple(tuple(_b_of_dual(spec, c1, c2) for c2 in gens) for c1 in gens)
    module = QuadraticModule(orders, gen_q, gen_b)
    expected = abs(mat_det(g))
    if module.order() != expected:
        raise LatticeError(
            f"discriminant group order {module.order()} != |det| = {expected}")
    return DiscriminantData(spec, module, gens)


def _q_of_dual(spec, c) -> Fraction:
    return inner(spec, c, c) % 2


def _b_of_dual(spec, c1, c2) -> Fraction:
    return inner(spec, c1, c2) % 1


# ---------------------------------------------------------------------------
# Milgram signature


def _sqrt_exact(n: int) -> CycQ:
    """An exact square root of a positive integer, as a cyclotomic value."""
    if n <= 0:
        raise ValueError("need a positive integer")
    s, f = 1, n
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
    """The residue s mod 8 with sum_x e^(pi i q(x)) = sqrt(|A|) zeta_8^s."""
    total = CycQ.rational(0)
    for x in module.elements():
        half = module.q(x) / 2
        total = total + CycQ.from_exponents(half.denominator, [(half.numerator, 1)])
    ratio = total / _sqrt_exact(module.order())
    for s in range(8):
        if ratio == CycQ.from_exponents(8, [(s, 1)]):
            return s
    raise MilgramError(f"gauss-sum ratio {ratio!r} is not an eighth root of unity")
