"""The Weil representation of SL(2, F_3) on the group algebra of (F_3)^4.

The representation acts on the 81 basis vectors e_alpha by

    rho(T) e_alpha = e^(pi i q(alpha)) e_alpha
    rho(S) e_alpha = -(1/9) sum_delta e^(-2 pi i b(delta, alpha)) e_delta

computed exactly: matrices are (A + B w)/d, w^2 = -1 - w, each row of A and B
one int of signed 32-bit fields (Kronecker substitution; Harvey, J. Symbolic
Comput. 44, 2009), so one addition adds whole rows while no field carries
(_bound).  rho(T) M scales row alpha by w^Q(alpha); rho(S) M is -1/9 times the
Fourier transform sum_alpha w^(-gamma . alpha) M[alpha] at the rows gamma =
G delta, G the Gram matrix of B mod 3, one 3-point transform per base-3 digit
(Good 1958; Cooley and Tukey 1965).  rho(S)^2 = N moves row -gamma to gamma
(Borcherds 1998, section 4): rho(-g) = N rho(g) takes no transform, cayley_check one per S-orbit.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import cache
from itertools import chain, product
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .exact import W_POWERS, CycQ, mat_mul, mat_rank, mat_transpose
from .fqm import (ModuleTable, OrthoBasis, QuadraticModule, aggregated_action, module_table,
                  orthogonal_bases, orthogonal_group)


class RelationError(ValueError):
    """A defining relation of the representation failed."""


class RankError(ValueError):
    """An isotypic projector check failed: idempotence or rho-equivariance."""


class InvarianceError(ValueError):
    """The isotypic projector's image is not stable under the orthogonal group."""


class GroupTableError(ValueError):
    """The enumeration of SL(2, F_3) or its character table failed a check."""


# ---------------------------------------------------------------------------
# exact matrices over Z[w] with a common denominator, one int per row

_BITS = 32  # per field; array and memoryview read a field as a C int, "i"
_LIMIT = 1 << _BITS - 1  # every field holds an integer of absolute value below this


@cache
def _bias(n: int) -> int:
    """2^31 in each of n fields: added, it makes every field nonnegative with
    no carry; flipping the top bits back leaves the two's complements."""
    return int.from_bytes(_LIMIT.to_bytes(4, "little") * n, "little")


def _pack(row) -> int:
    bias = _bias(len(row))
    return (int.from_bytes(array("i", row).tobytes(), "little") ^ bias) - bias


def _unpack(rows, n: int) -> list[int]:
    """The fields of packed rows of n fields each, row after row."""
    bias = _bias(n)
    return memoryview(b"".join(((x + bias) ^ bias).to_bytes(4 * n, "little")
                               for x in rows)).cast("i").tolist()


class OmegaMat:
    """(A + B w) / den, w = e^(2 pi i / 3): `a` and `b` hold a packed int per
    row of `cols` fields, and `height` bounds every |numerator|.  Always in
    lowest terms, den > 0 and gcd(A, B, den) = 1: equal matrices have equal
    den, a and b."""

    __slots__ = ("a", "b", "den", "cols", "height", "_transpose")

    def __init__(self, a: tuple, b: tuple, den: int, height: int, cols: int):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            a, b, den = tuple(-x for x in a), tuple(-x for x in b), -den
        rows, g = (*a, *b), den
        if g > 1 and rows:  # the first row's fields give g; the others check it
            g = math.gcd(g, *_unpack(rows[:1], cols))
        if g > 1 or height > 1 << 11:  # else the pass changes no row, den or height
            # x = g q, q + low with no bit of high set (fields in [-2^11, 2^11)),
            # iff g divides every field of x and the quotients are that small, as
            # g 2^11 <= _LIMIT; a row that fails cuts g by its own fields
            ones = _bias(cols) >> _BITS - 1  # 1 in every field
            low, high, first, quotients, wide = ones << 11, ~(ones * 4095), g, [], False
            for x in rows:
                q, r = divmod(x, g) if g > 1 else (x, 0)
                if r or g << 11 > _LIMIT or q + low & high:
                    wide, g = True, g if g == 1 else math.gcd(g, *_unpack((x,), cols))
                quotients.append(q)
            rows, den, height = quotients if g == first else [x // g for x in rows], den // g, \
                height // g if wide else min(height // g, 1 << 11)
            if height > 1 << 11:  # the largest |numerator|
                fields = _unpack(rows, cols)
                height = max(max(fields), -min(fields))
        self.a, self.b, self.den, self.cols, self.height = \
            tuple(rows[:len(a)]), tuple(rows[len(a):]), den, cols, height
        self._transpose = None

    @staticmethod
    def identity(n: int) -> "OmegaMat":
        return OmegaMat(tuple(1 << _BITS * i for i in range(n)), (0,) * n, 1, 1, n)

    def rows(self) -> tuple[list[list[int]], list[list[int]]]:  # A and B
        return tuple([flat[i:i + self.cols] for i in range(0, len(flat), self.cols)]
                     for flat in (_unpack(self.a, self.cols), _unpack(self.b, self.cols)))

    def __matmul__(self, other: "OmegaMat") -> "OmegaMat":
        if self.cols != len(other.a):
            raise ValueError("inner dimensions differ")
        bound = _bound(3 * self.cols, self, other)
        ya, yb = other.a, other.b
        yd = tuple(map(sub, ya, yb))
        a, b = [], []
        for xa, xb in zip(*self.rows()):
            # (xa + xb w)(ya + yb w) = (xa ya - xb yb) + (xa yb + xb (ya - yb)) w
            a.append(sum(map(mul, xa, ya)) - sum(map(mul, xb, yb)))
            b.append(sum(map(mul, xa, yb)) + sum(map(mul, xb, yd)))
        return OmegaMat(tuple(a), tuple(b), self.den * other.den, bound, other.cols)

    def __eq__(self, other):
        if not isinstance(other, OmegaMat):
            return NotImplemented
        return (self.den, self.cols, self.a, self.b) == (other.den, other.cols, other.a, other.b)

    __hash__ = None  # type: ignore[assignment]

    def trace(self) -> CycQ:
        bias, mask = _bias(self.cols), (1 << _BITS) - 1  # field i of row i, plus 2^31
        return CycQ(3, [sum((x + bias) >> _BITS * i & mask for i, x in enumerate(rows))
                        - len(rows) * _LIMIT for rows in (self.a, self.b)], self.den)

    def transpose(self) -> "OmegaMat":  # kept: matvec_int reads it for every vector
        if self._transpose is None:
            self._transpose = OmegaMat(*(tuple(map(_pack, zip(*part))) for part in self.rows()),
                                       self.den, self.height, len(self.a))
        return self._transpose

    def matvec_int(self, v) -> tuple[list[int], list[int], int]:
        """(A v, B v, den) for integer v, which combines the rows of the transpose."""
        _bound(len(v) * max(map(abs, v), default=0), self)
        t = self.transpose()
        return (*(_unpack((sum(map(mul, v, part)),), t.cols) for part in (t.a, t.b)), self.den)


def _bound(factor: int, *ms: OmegaMat) -> int:
    """factor times the heights of ms; OverflowError if a field could carry past it."""
    bound = factor * math.prod(m.height for m in ms)
    if bound >= _LIMIT:
        raise OverflowError(f"numerators up to {bound} do not fit a {_BITS}-bit field")
    return bound


def _times_t(q: bytes, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """rho(T) on numerator rows: w (x + y w) = -y + (x - y) w, w^2 (x + y w) = (y - x) - x w."""
    return tuple(zip(*[(x, y) if k == 0 else (-y, x - y) if k == 1 else (y - x, -x)
                       for x, y, k in zip(a, b, q)]))


def _fourier(t: ModuleTable, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """-9 rho(S) from the left on numerator rows.  Each round transforms the
    leading base-3 digit, y_m = sum_d w^(-m d) x_d, and moves it to the end
    as m; r rounds put the digits back.  A round at most quadruples |numerators|."""
    third = len(a) // 3
    for _ in t.unit:
        a0, a1, a2, b0, b1, b2 = (x[k * third:(k + 1) * third] for x in (a, b) for k in range(3))
        da, db = list(map(sub, a1, a2)), list(map(sub, b1, b2))
        # y0 = x0 + x1 + x2, y1 = x0 + w^2 x1 + w x2, y2 = x0 + w x1 + w^2 x2
        a = list(chain.from_iterable(zip(map(add, map(add, a0, a1), a2),
                                         map(add, map(sub, a0, a1), db),
                                         map(sub, map(sub, a0, a2), db))))
        b = list(chain.from_iterable(zip(map(add, map(add, b0, b1), b2),
                                         map(sub, map(sub, b0, da), b2),
                                         map(sub, map(add, b0, da), b1))))
    # digit j of G delta is B(g_j, delta), at place value unit[j]: the B rows
    # add as base-256 numbers with no carry, as 2 (3^r - 1) / 2 < 256
    rows = itemgetter(*sum(u * int.from_bytes(t.b[u], "big") for u in t.unit)
                      .to_bytes(len(a), "big"))
    return rows(a), rows(b)


def _raw(t: ModuleTable, letter: str, m: OmegaMat) -> tuple[tuple, tuple, int, int]:
    """rho(letter) m for S, T or SS (row gamma is -gamma of m): rows, den, height; unreduced."""
    if letter == "T":
        return (*_times_t(t.q, m.a, m.b), m.den, _bound(2, m))
    if letter == "SS":
        return (*map(itemgetter(*t.neg), (m.a, m.b)), m.den, m.height)
    return (*_fourier(t, m.a, m.b), -9 * m.den, _bound(4 ** len(t.unit), m))


def _left(t: ModuleTable, letter: str, m: OmegaMat) -> OmegaMat:
    return OmegaMat(*_raw(t, letter, m), m.cols)


# ---------------------------------------------------------------------------
# SL(2, F_3)

Mat2 = tuple  # ((a, b), (c, d)) mod 3

S_MAT: Mat2 = ((0, 2), (1, 0))
T_MAT: Mat2 = ((1, 1), (0, 1))

# conjugacy-class display order; matches the character table below
CLASS_ORDER = ("E", "-E", "S", "ST2", "-ST2", "ST", "-ST")
CLASS_SIZES = (1, 1, 6, 4, 4, 4, 4)


def _mul2(x: Mat2, y: Mat2) -> Mat2:
    return (
        ((x[0][0] * y[0][0] + x[0][1] * y[1][0]) % 3,
         (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % 3),
        ((x[1][0] * y[0][0] + x[1][1] * y[1][0]) % 3,
         (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % 3),
    )


def _neg2(x: Mat2) -> Mat2:
    return tuple(tuple((-v) % 3 for v in row) for row in x)


def _inv2(x: Mat2) -> Mat2:
    # the adjugate, which is the inverse as det x = 1: every caller passes S, T
    # or a product of them
    (a, b), (c, d) = x
    return ((d % 3, (-b) % 3), ((-c) % 3, a % 3))


class GroupElement(NamedTuple):
    mat: Mat2
    word: str  # shortest word in S, T; ties broken S before T


class SL2F3(NamedTuple):
    elements: tuple[GroupElement, ...]
    class_of: dict  # mat -> label

    @property
    def order(self) -> int:
        return len(self.elements)


def build_sl2f3() -> SL2F3:
    ident: Mat2 = ((1, 0), (0, 1))
    elements = [GroupElement(ident, "")]
    seen = {ident}
    queue = [elements[0]]
    while queue:
        nxt = []
        for g in queue:
            for letter, gen in (("S", S_MAT), ("T", T_MAT)):
                m = _mul2(g.mat, gen)
                if m not in seen:
                    seen.add(m)
                    el = GroupElement(m, g.word + letter)
                    elements.append(el)
                    nxt.append(el)
        queue = nxt
    if len(elements) != 24:
        raise GroupTableError(f"SL(2, F_3) enumeration found {len(elements)} elements")

    # conjugacy classes, each the orbit of its named representative
    st = _mul2(S_MAT, T_MAT)
    st2 = _mul2(st, T_MAT)
    named = zip(CLASS_ORDER, CLASS_SIZES, (ident, _neg2(ident), S_MAT, st2, _neg2(st2), st,
                                           _neg2(st)))
    class_of = {}
    for label, size, rep in named:
        orbit = {_mul2(_mul2(h.mat, rep), _inv2(h.mat)) for h in elements}
        if len(orbit) != size:
            raise GroupTableError(f"class {label} has size {len(orbit)}, expected {size}")
        class_of.update(dict.fromkeys(orbit, label))
    if len(class_of) != 24:
        raise GroupTableError("conjugacy classes do not partition the group")
    return SL2F3(tuple(elements), class_of)


# ---------------------------------------------------------------------------
# the character table of SL(2, F_3)

# each value x + y w as the pair (x, y); w^2 = -1 - w is (-1, -1)
CHARACTER_TABLE: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)),
    2: ((3, 0), (3, 0), (-1, 0), (0, 0), (0, 0), (0, 0), (0, 0)),
    3: ((1, 0), (1, 0), (1, 0), (-1, -1), (-1, -1), (0, 1), (0, 1)),
    4: ((1, 0), (1, 0), (1, 0), (0, 1), (0, 1), (-1, -1), (-1, -1)),
    5: ((2, 0), (-2, 0), (0, 0), (0, -1), (0, 1), (-1, -1), (1, 1)),
    6: ((2, 0), (-2, 0), (0, 0), (-1, 0), (1, 0), (1, 0), (-1, 0)),
    7: ((2, 0), (-2, 0), (0, 0), (1, 1), (-1, -1), (0, 1), (0, -1)),
}


def _zw_pairing(u, v, weights) -> tuple[int, int]:
    """sum_k weights[k] u_k conj(v_k) for Z[w] values as (1-part, w-part) pairs:
    (x0 + x1 w) conj(y0 + y1 w) = (x0 y0 + x1 y1 - x0 y1) + (x1 y0 - x0 y1) w."""
    return tuple(map(sum, zip(*((k * (x0 * y0 + x1 * y1 - x0 * y1), k * (x1 * y0 - x0 * y1))
                                for k, (x0, x1), (y0, y1) in zip(weights, u, v)))))


def validate_character_table() -> list[tuple[tuple[int, int], ...]]:
    """First and second orthogonality for the frozen table, as integer sums
    in Z[w]; raises on failure and returns the rows it checked."""
    keys, rows, order = list(CHARACTER_TABLE), list(CHARACTER_TABLE.values()), sum(CLASS_SIZES)
    n = len(CLASS_SIZES)
    # row orthogonality is X D X* = |G| I, D the diagonal of class sizes; a square
    # X is then invertible, so X* X = |G| D^-1, which is column orthogonality
    if len(rows) != n or any(len(row) != n for row in rows):
        raise GroupTableError(f"character table is not {n} x {n}")
    for (i, u), (j, v) in product(enumerate(rows), repeat=2):
        if _zw_pairing(u, v, CLASS_SIZES) != (order * (i == j), 0):
            raise GroupTableError(f"row orthogonality fails for ({keys[i]}, {keys[j]})")
    return rows


# ---------------------------------------------------------------------------
# the representation

class WeilRep(NamedTuple):
    module: QuadraticModule
    group: SL2F3
    rho: dict  # mat -> OmegaMat

    @property
    def rho_S(self) -> OmegaMat:
        return self.rho[S_MAT]

    @property
    def rho_T(self) -> OmegaMat:
        return self.rho[T_MAT]

    def dim(self) -> int:
        return self.module.order()


def build_weil(module: QuadraticModule) -> WeilRep:
    """Construct rho on C[A] and certify its defining relations.  _left is
    certified on the identity against rho(S) from the B table.  rho(E),
    rho(S) and rho(S)^2 are the matrices certified; every other rho(g) is
    gen rho(rest), gen the first letter of the word of g, or rho(S)^2 rho(-g)."""
    table, n = module_table(module), module.order()
    ident = OmegaMat.identity(n)
    rho_s = _left(table, "S", ident)
    # rho(S) = -(1/9) w^(-B): each part of -w^(-B) as a signed byte per B
    parts = (bytes(-W_POWERS[-x % 3][k] % 256 for x in range(256)) for k in (0, 1))
    if not rho_s == OmegaMat(*(tuple(_pack(array("b", row.translate(part))) for row in table.b)
                               for part in parts), 9, 1, n):
        raise RelationError("the Fourier transform is not rho(S)")

    # rho(T)^3 = 1 by construction: rho(T) = diag(w^Q(alpha))
    s2 = _left(table, "S", rho_s)
    if not s2 == _left(table, "SS", ident):
        raise RelationError("rho(S)^2 is not the negation permutation")
    # rho(S)^4 = 1 follows: the negation permutation is an involution
    st3 = _left(table, "T", ident)
    for letter in "STSTS":  # S T S T S T, applied from the right end
        st3 = _left(table, letter, st3)
    if not st3 == s2:
        raise RelationError("(rho(S) rho(T))^3 != rho(S)^2")

    group = build_sl2f3()
    rho = {group.elements[0].mat: ident, S_MAT: rho_s, _mul2(S_MAT, S_MAT): s2}
    for g in group.elements[1:]:  # BFS order: every shorter word comes first
        if g.mat not in rho:
            gen = S_MAT if g.word[0] == "S" else T_MAT
            rho[g.mat] = _left(table, g.word[0], rho[_mul2(_inv2(gen), g.mat)])
        if _neg2(g.mat) not in rho:
            rho[_neg2(g.mat)] = _left(table, "SS", rho[g.mat])
    return WeilRep(module, group, rho)


def cayley_check(rep: WeilRep) -> int:
    """rho(g) rho(h) = rho(gh) over every pair; returns the pair count, 576.

    Let P(g) say rho(g) rho(h) = rho(gh) for all h.  If P(a) and P(b) hold,
    then rho(ab) rho(h) = rho(a) rho(b) rho(h) = rho(a) rho(bh) = rho(abh),
    so P(ab) holds.  rho(E) = I gives P(E), and build_sl2f3 reaches every
    element as a word in S and T, so P(S) and P(T) prove all 576 pairs.
    P(T) is 24 products by _raw.  For P(S), let F = _raw(., "S", .) and N = _raw(., "SS", .):
    F I = rho(S) and F rho(S) = rho(S^2) = N I give F^2 = N, FN = F^3 = NF and N^2 = 1.  So
    on each S-orbit {h, Sh, -h, -Sh}, F rho(h) = rho(Sh), N rho(h) = rho(-h) and N rho(Sh) =
    rho(-Sh) give F rho(Sh) = N rho(h), F rho(-h) = NF rho(h) and F rho(-Sh) = N^2 rho(h).
    """
    elements, rho = rep.group.elements, rep.rho
    for g in elements:
        if 9 % rho[g.mat].den:
            raise RelationError(f"rho({g.word or 'E'}) has denominator "
                                f"{rho[g.mat].den}, which does not divide 9")
    if not rho[elements[0].mat] == OmegaMat.identity(rep.dim()):
        raise RelationError("rho(E) is not the identity")
    checks, seen = [("S", S_MAT, _mul2(S_MAT, S_MAT))], set()  # F^2 = N first
    for h, sh in ((g.mat, _mul2(S_MAT, g.mat)) for g in elements):
        checks.append(("T", h, _mul2(T_MAT, h)))
        if h not in seen:  # the S-orbit {h, Sh, -h, -Sh}
            seen.update((h, sh, _neg2(h), _neg2(sh)))
            checks += ("S", h, sh), ("SS", h, _neg2(h)), ("SS", sh, _neg2(sh))
    table, words = module_table(rep.module), {g.mat: g.word or "E" for g in elements}
    for letter, h, gh in checks:  # rho(letter) rho(h) = rho(gh)
        (a, b, den, height), y = _raw(table, letter, rho[h]), rho[gh]
        _bound(max(y.den * height, abs(den) * y.height))  # the cross products fit
        if not (a == y.a and b == y.b if den == y.den
                else [x * y.den for x in a + b] == [x * den for x in y.a + y.b]):
            raise RelationError(f"rho({letter}) rho({words[h]}) "
                                "disagrees with the product element")
    return len(elements) ** 2


# ---------------------------------------------------------------------------
# traces and character decomposition

class Decomposition(NamedTuple):
    traces: tuple  # CycQ per class, display order
    multiplicities: tuple[int, ...]  # over char indices 1..7


def character_decompose(rep: WeilRep) -> Decomposition:
    rows = validate_character_table()
    per_class: dict[str, CycQ] = {}
    for g in rep.group.elements:
        tr, label = rep.rho[g.mat].trace(), rep.group.class_of[g.mat]
        if label not in per_class:
            if tr.den != 1:  # the trace of a finite-order matrix is an algebraic integer
                raise RelationError(f"trace on class {label} is not in Z[w]: {tr}")
            per_class[label] = tr
        elif not per_class[label] == tr:
            raise RelationError(f"trace is not constant on class {label}")
    traces = tuple(per_class[label] for label in CLASS_ORDER)
    mults, order, parts = [], sum(CLASS_SIZES), [tr.num for tr in traces]
    for i, row in zip(CHARACTER_TABLE, rows):  # |G| <tr, chi_i> over Z[w]
        total, w_part = _zw_pairing(parts, row, CLASS_SIZES)
        if w_part:
            raise RelationError(f"multiplicity of character {i} is irrational")
        if total % order or total < 0:
            raise RelationError(f"multiplicity of character {i} is {Fraction(total, order)}")
        mults.append(total // order)
    dims = [row[0][0] for row in rows]  # the value at E
    if sum(m * d for m, d in zip(mults, dims)) != rep.dim():
        raise RelationError("multiplicities do not add up to the dimension")
    return Decomposition(traces, tuple(mults))


# ---------------------------------------------------------------------------
# the aggregated 4-dimensional dual action


def aggregated_dual(rep: WeilRep):
    """The conjugated action compressed to the four types, read off the
    pairing table by `fqm.aggregated_action`."""
    return aggregated_action(rep.module)


# ---------------------------------------------------------------------------
# the 5-dimensional isotypic subspace

class IsotypicSubspace(NamedTuple):
    projector: OmegaMat
    dimension: int

    def contains_int_vector(self, v) -> bool:
        av, bv, den = self.projector.matvec_int(v)
        return av == [x * den for x in v] and not any(bv)


def isotypic_subspace(rep: WeilRep, char_index: int = 3) -> IsotypicSubspace:
    """Image of the isotypic projector (dim chi / 24) sum conj(chi(g)) rho(g),
    summed row by row over the numerator rows of the 24 rho(g), scaled to one den,
    with chi the row of the validated character table."""
    values = dict(zip(CHARACTER_TABLE, validate_character_table()))[char_index]
    dim_chi, _ = values[CLASS_ORDER.index("E")]
    group, table = rep.group, module_table(rep.module)
    mats = [rep.rho[g.mat] for g in group.elements]
    den = math.lcm(*(m.den for m in mats))  # the numerators over den, for each g
    # dim chi conj(chi(g)) den / den(rho(g)) with conj(x + y w) = (x - y) - y w
    c0, c1 = zip(*((dim_chi * (x - y) * den // m.den, -dim_chi * y * den // m.den)
                   for (x, y), m in zip((values[CLASS_ORDER.index(group.class_of[g.mat])]
                                         for g in group.elements), mats)))
    height = _bound(sum((abs(x) + 2 * abs(y)) * m.height for x, y, m in zip(c0, c1, mats)))
    a, b = [], []
    for xa, xb in zip(zip(*(m.a for m in mats)), zip(*(m.b for m in mats))):
        # (c0 + c1 w)(A + B w) = (c0 A - c1 B) + (c0 B + c1 (A - B)) w
        a.append(sum(map(mul, c0, xa)) - sum(map(mul, c1, xb)))
        b.append(sum(map(mul, c0, xb)) + sum(map(mul, c1, xa)) - sum(map(mul, c1, xb)))
    proj = OmegaMat(tuple(a), tuple(b), den * group.order, height, rep.dim())
    if not proj @ proj == proj:
        raise RankError("isotypic operator is not idempotent")
    # P rho(T) = rho(T) P iff P[x, y] = 0 at q(x) != q(y); P rho(S) = (rho(S) P^T)^T
    bias, masks = _bias(rep.dim()), [int.from_bytes(b"".join(
        b"\0" * 4 if k == v else b"\xff" * 4 for k in table.q), "little") for v in range(3)]
    if any((x + bias ^ bias) & masks[k] for x, k in zip(proj.a + proj.b, table.q * 2)) or not \
            _left(table, "S", proj) == _left(table, "S", proj.transpose()).transpose():
        raise RankError("isotypic operator does not commute with rho")
    # proj is idempotent (checked above) over a field of characteristic 0, so it is
    # diagonalizable with eigenvalues 0 and 1: its trace is its rank, an integer
    return IsotypicSubspace(proj, int(proj.trace().as_fraction()))


# ---------------------------------------------------------------------------
# special vectors

class SpecialVector(NamedTuple):
    basis: OrthoBasis
    coeffs: dict  # element -> -1, 0, +1
    vec: tuple[int, ...]  # over the 81 elements in lex order


def special_vector(module: QuadraticModule, basis: OrthoBasis) -> SpecialVector:
    """The sign vector supported on the 16 combinations sum(+-alpha_i).

    Coefficient at alpha: the product of the four pairings B(alpha, alpha_i)
    over F_3, read as +1 or -1 (zero kills the element).
    """
    t = module_table(module)
    rows = [t.b[t.index[a]] for a in basis.vectors]  # B(x, alpha_i) = B(alpha_i, x)
    vec = tuple((0, 1, -1)[math.prod(values) % 3] for values in zip(*rows))
    # The basis comes from orthogonal_bases, so for x = sum c_i alpha_i,
    # B(x, alpha_j) = c_j B(alpha_j, alpha_j) with B(alpha_j, alpha_j) =
    # 2 Q(alpha_j) != 0: the product is nonzero exactly on the 16 signed sums
    # (every c_i = +-1), each of type 1 as Q = 1 + 2 + 2 + 2 = 1 mod 3.
    coeffs = {x: c for x, c in zip(t.elements, vec) if c}
    return SpecialVector(basis, coeffs, vec)


def special_vectors(rep: WeilRep) -> tuple[SpecialVector, ...]:
    return tuple(special_vector(rep.module, b) for b in orthogonal_bases(rep.module))


class SpecialChecks(NamedTuple):
    s_fixed: bool
    t_eigenvector: bool
    reflections_negate: tuple[bool, ...]
    in_isotypic: bool

    @property
    def ok(self) -> bool:
        return self.s_fixed and self.t_eigenvector and all(self.reflections_negate) \
            and self.in_isotypic


def verify_special(rep: WeilRep, sv: SpecialVector,
                   subspace: IsotypicSubspace) -> SpecialChecks:
    # rho(S) v and rho(T) v from the left, as build_weil certified them
    v, zero, table = sv.vec, (0,) * len(sv.vec), module_table(rep.module)
    av, bv = _fourier(table, v, zero)
    s_fixed = av == tuple(-9 * x for x in v) and bv == zero  # -9 rho(S) v = -9 v
    av, bv = _times_t(table.q, v, zero)
    t_eigen = av == zero and bv == v  # w * v has a-part 0 and b-part v

    # the reflection r in alpha negates v iff v[r(x)] = -v[x] for every x
    group = orthogonal_group(rep.module)
    negations = tuple(k >= 0 and all(v[j] == -c for j, c in zip(group.perm[k], v))
                      for k in map(group.reflection, sv.basis.vectors))
    return SpecialChecks(s_fixed, t_eigen, negations, subspace.contains_int_vector(v))


def special_vector_rank(vectors) -> int:
    """Rank over Q of the span of the sign vectors, read off their Gram matrix.

    For the integer matrix V with the vectors as rows, V V^T y = 0 gives
    |V^T y|^2 = y^T V V^T y = 0, so V^T y = 0 over Q: V V^T and V^T have
    one kernel, and rank(V V^T) = rank(V).  The Gram matrix (15 x 15, in
    Python ints) is cheaper to echelon than V (15 x 81).
    """
    rows = [sv.vec for sv in vectors]
    return mat_rank(mat_mul(rows, mat_transpose(rows)))


# ---------------------------------------------------------------------------
# O(q)-irreducibility of the subspace

def o_q_character_norm(rep: WeilRep, projector: OmegaMat) -> Fraction:
    """<chi, chi> for the O(q)-action, which permutes the e_alpha, on the
    image of an invariant projector: (1/|O|) sum_g |trace(P_g P)|^2, 1 exactly
    when the image is O(q)-irreducible.  Raises InvarianceError if the image
    is not O(q)-stable (checked on the generators)."""
    group = orthogonal_group(rep.module)
    # entry x + y w as x + y 2^s, so that sums of n entries still split
    s = 2 + (len(projector.a) * projector.height).bit_length()
    rows = [tuple(x + (y << s) for x, y in zip(*pair)) for pair in zip(*projector.rows())]
    for k in group.generator_rows:  # P_g P P_g^-1 = P iff P[g i, g j] = P[i, j]
        image = itemgetter(*group.perm[k])
        if any(image(rows[gi]) != row for gi, row in zip(group.perm[k], rows)):
            raise InvarianceError("projector image is not stable under the orthogonal group")
    # trace(P_g P) = sum_i P[i, g i]: column i of the perm rows holds g i for
    # every g, so reading row i of P there gives term i for all g at once
    terms = (itemgetter(*column)(row) for column, row in zip(zip(*group.perm), rows))
    half, total = 1 << s - 1, 0
    for y, x in (divmod(t + half, 2 * half) for t in map(sum, zip(*terms))):
        x -= half
        total += x * x - x * y + y * y
    return Fraction(total, projector.den * projector.den * group.order)
