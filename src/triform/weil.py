"""The Weil representation of SL(2, F_3) on the group algebra of (F_3)^4.

The representation acts on the 81 basis vectors e_alpha by

    rho(T) e_alpha = e^(pi i q(alpha)) e_alpha
    rho(S) e_alpha = -(1/9) sum_delta e^(-2 pi i b(delta, alpha)) e_delta

and everything here is exact: matrices are stored as (A + B w)/d with
integer numpy arrays A, B, a positive integer denominator d, and w a
primitive cube root of unity (w^2 = -1 - w).  Every int64 kernel checks a
bound on its entries first and raises OverflowError rather than wrap.  The
module tables of `fqm` are bytes: the Q and B tables, the negation
permutation and, in o_q_character_norm, the O(q) rows become numpy arrays
through np.frombuffer.

Every product of Z[w] numerators goes through one kernel, _zw_matmul: four
float64 matmuls.  For an inner dimension k and numerators of absolute value
at most m1 and m2, every entry and partial sum is an integer of absolute
value at most 3 k m1 m2, so the products are exact; the kernel asserts
3 k m1 m2 < 2^53 before it multiplies and raises OverflowError otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import W_POWERS, CycQ, mat_mul, mat_rank, mat_transpose, root_of_unity
from .fqm import (OrthoBasis, QuadraticModule, aggregated_action, module_table,
                  orthogonal_bases, orthogonal_group)


class RelationError(ValueError):
    """A defining relation of the representation failed."""


class RankError(ValueError):
    """An isotypic projector check failed: idempotence, rho-equivariance or integer trace."""


class InvarianceError(ValueError):
    """The isotypic projector's image is not stable under the orthogonal group."""


class GroupTableError(ValueError):
    """The enumeration of SL(2, F_3) or its character table failed a check."""


# ---------------------------------------------------------------------------
# exact matrices over Z[w] with a common denominator

_OVERFLOW_LIMIT = 1 << 61


def _guard(bound: int) -> None:
    """Raise unless `bound`, a bound on every intermediate of an int64 kernel, fits."""
    if bound >= _OVERFLOW_LIMIT:
        raise OverflowError("entries too large for the int64 representation")


def _byte_rows(rows: tuple[bytes, ...]) -> np.ndarray:
    """Equal-length bytes rows as a uint8 matrix."""
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)


def _max_abs(x) -> int:
    """The largest |entry| of an integer array, as a Python int (0 if empty)."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


_FLOAT_EXACT_LIMIT = 1 << 53


def _zw_matmul(a1, b1, a2, b2):
    """(A1 + B1 w)(A2 + B2 w) as a float64 (1-part, w-part) pair of exact integers.

    The operands hold integers (any numeric dtype).  With k the inner
    dimension and m1, m2 the largest numerators of the two factors, every
    entry and partial sum has absolute value at most 3 k m1 m2; that bound
    is checked against 2^53 before any product, so the floats are exact.
    """
    m1, m2 = max(_max_abs(a1), _max_abs(b1)), max(_max_abs(a2), _max_abs(b2))
    if 3 * a1.shape[-1] * m1 * m2 >= _FLOAT_EXACT_LIMIT:
        raise OverflowError(f"numerators up to {m1} and {m2} are too large for "
                            "exact float64 products")
    a1, b1, a2, b2 = (np.asarray(x, dtype=np.float64) for x in (a1, b1, a2, b2))
    b1b2 = b1 @ b2
    return a1 @ a2 - b1b2, a1 @ b2 + b1 @ a2 - b1b2


def _zw_mul(x0, x1, y0, y1):
    """(x0 + x1 w)(y0 + y1 w) as a (1-part, w-part) pair; w^2 = -1 - w."""
    x1y1 = x1 * y1
    return x0 * y0 - x1y1, x0 * y1 + x1 * y0 - x1y1


class OmegaMat:
    """(A + B w) / den with int64 arrays A, B; w = e^(2 pi i / 3).

    Always in lowest terms: den > 0 and gcd(A, B, den) = 1, so equal
    matrices have equal den, A and B.
    """

    __slots__ = ("a", "b", "den")

    def __init__(self, a, b, den: int = 1):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape != b.shape:
            raise ValueError("component shapes differ")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            a, b, den = -a, -b, -den
        g = int(np.gcd.reduce(np.concatenate([np.abs(a).ravel(), np.abs(b).ravel(), [den]])))
        if g > 1:
            a, b, den = a // g, b // g, den // g
        self.a, self.b, self.den = a, b, int(den)

    @staticmethod
    def identity(n: int) -> "OmegaMat":
        return OmegaMat(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64))

    @property
    def shape(self):
        return self.a.shape

    def max_abs(self) -> int:
        """The largest |numerator| over both components."""
        return max(_max_abs(self.a), _max_abs(self.b))

    def __matmul__(self, other: "OmegaMat") -> "OmegaMat":
        _guard(self.den * other.den)
        a, b = _zw_matmul(self.a, self.b, other.a, other.b)
        return OmegaMat(a, b, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, OmegaMat):
            return NotImplemented
        return (self.den == other.den and np.array_equal(self.a, other.a)
                and np.array_equal(self.b, other.b))

    __hash__ = None  # type: ignore[assignment]

    def conjugate(self) -> "OmegaMat":
        _guard(2 * self.max_abs())
        return OmegaMat(self.a - self.b, -self.b, self.den)

    def trace(self) -> CycQ:
        _guard(len(self.a) * self.max_abs())
        ta, tb = int(np.trace(self.a)), int(np.trace(self.b))
        return CycQ(3, [ta, tb], self.den)

    def matvec_int(self, v) -> tuple[np.ndarray, np.ndarray, int]:
        v = np.asarray(v, dtype=np.int64)
        av, bv = _zw_matmul(self.a, self.b, v, np.zeros_like(v))
        return av, bv, self.den

    def __repr__(self):
        return f"OmegaMat(shape={self.shape}, den={self.den})"


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
    (a, b), (c, d) = x
    det = (a * d - b * c) % 3
    if det != 1:
        raise ValueError("not in SL(2, F_3)")
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

    # conjugacy classes
    remaining = {g.mat for g in elements}
    raw_classes = []
    for g in elements:
        if g.mat not in remaining:
            continue
        orbit = {_mul2(_mul2(h.mat, g.mat), _inv2(h.mat)) for h in elements}
        raw_classes.append(orbit)
        remaining -= orbit

    st = _mul2(S_MAT, T_MAT)
    st2 = _mul2(st, T_MAT)
    named = {
        "E": ident,
        "-E": _neg2(ident),
        "S": S_MAT,
        "ST2": st2,
        "-ST2": _neg2(st2),
        "ST": st,
        "-ST": _neg2(st),
    }
    class_of = {}
    for label, size in zip(CLASS_ORDER, CLASS_SIZES):
        rep = named[label]
        orbit = next((o for o in raw_classes if rep in o), None)
        if orbit is None:
            raise GroupTableError(f"no conjugacy class contains {label}")
        if len(orbit) != size:
            raise GroupTableError(f"class {label} has size {len(orbit)}, expected {size}")
        for m in orbit:
            class_of[m] = label
    if len(class_of) != 24:
        raise GroupTableError("conjugacy classes do not partition the group")
    return SL2F3(tuple(elements), class_of)


# ---------------------------------------------------------------------------
# the character table of SL(2, F_3)

CHARACTER_TABLE: dict[int, tuple[CycQ, ...]] = {
    1: tuple(CycQ.rational(x) for x in (1, 1, 1, 1, 1, 1, 1)),
    2: tuple(CycQ.rational(x) for x in (3, 3, -1, 0, 0, 0, 0)),
    3: (CycQ.rational(1), CycQ.rational(1), CycQ.rational(1),
        root_of_unity(2, 3), root_of_unity(2, 3), root_of_unity(1, 3), root_of_unity(1, 3)),
    4: (CycQ.rational(1), CycQ.rational(1), CycQ.rational(1),
        root_of_unity(1, 3), root_of_unity(1, 3), root_of_unity(2, 3), root_of_unity(2, 3)),
    5: (CycQ.rational(2), CycQ.rational(-2), CycQ.rational(0),
        -root_of_unity(1, 3), root_of_unity(1, 3), root_of_unity(2, 3), -root_of_unity(2, 3)),
    6: (CycQ.rational(2), CycQ.rational(-2), CycQ.rational(0),
        CycQ.rational(-1), CycQ.rational(1), CycQ.rational(1), CycQ.rational(-1)),
    7: (CycQ.rational(2), CycQ.rational(-2), CycQ.rational(0),
        -root_of_unity(2, 3), root_of_unity(2, 3), root_of_unity(1, 3), -root_of_unity(1, 3)),
}


def _zw_rows(rows: dict) -> tuple[np.ndarray, np.ndarray]:
    """Character rows as (1-part, w-part) integer arrays, one row per key.

    Raises GroupTableError naming the first row with a value outside Z[w].
    """
    parts = []
    for i, row in rows.items():
        values = [v.embed(3) for v in row if 3 % v.n == 0]
        if len(values) < len(row) or any(v.den != 1 for v in values):
            raise GroupTableError(f"character {i} takes a value outside Z[w]")
        parts.append([v.num for v in values])
    table = np.array(parts, dtype=np.int64).reshape(len(rows), -1, 2)
    return table[..., 0], table[..., 1]


def validate_character_table() -> None:
    """First and second orthogonality for the frozen table; raises on failure.

    Both relations are integer sums in Z[w]; conj(x + y w) = (x - y) - y w.
    """
    keys = list(CHARACTER_TABLE)
    a, b = _zw_rows(CHARACTER_TABLE)
    ca, cb = a - b, -b
    sizes = np.array(CLASS_SIZES)
    order = int(sizes.sum())
    # [i, j, c] = chi_i(c) conj(chi_j(c)), summed over classes c with sizes
    p, q = _zw_mul(a[:, None], b[:, None], ca[None], cb[None])
    bad = ((p * sizes).sum(-1) != order * np.eye(len(keys))) | ((q * sizes).sum(-1) != 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise GroupTableError(f"row orthogonality fails for ({keys[i]}, {keys[j]})")
    # [chi, c, d] = chi(c) conj(chi(d)), summed over characters, times size_c
    p, q = _zw_mul(a[:, :, None], b[:, :, None], ca[:, None], cb[:, None])
    bad = (p.sum(0) * sizes[:, None] != order * np.eye(len(sizes))) | (q.sum(0) != 0)
    if bad.any():
        c, d = np.argwhere(bad)[0]
        raise GroupTableError(f"column orthogonality fails for ({c}, {d})")


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
    """Construct rho on C[A] and certify its defining relations."""
    table = module_table(module)
    n = len(table.elements)
    q, b = np.frombuffer(table.q, dtype=np.uint8), _byte_rows(table.b).astype(np.intp)
    one, w = np.array(W_POWERS).T  # the 1-parts and the w-parts of w^k, k = 0, 1, 2
    # rho(T): diagonal phases e^(pi i q)
    rho_t = OmegaMat(np.diag(one[q]), np.diag(w[q]))
    # rho(S): -(1/9) e^(-2 pi i b(delta, alpha)) at (delta, alpha)
    k = (-b) % 3
    rho_s = OmegaMat(-one[k], -w[k], 9)

    # rho(T)^3 = 1 by construction: rho(T) = diag(w^Q(alpha))
    s2 = rho_s @ rho_s
    neg_perm = np.zeros((n, n), dtype=np.int64)
    neg_perm[np.frombuffer(table.neg, dtype=np.uint8), np.arange(n)] = 1
    if not s2 == OmegaMat(neg_perm, np.zeros_like(neg_perm)):
        raise RelationError("rho(S)^2 is not the negation permutation")
    # rho(S)^4 = 1 follows: the negation permutation is an involution
    st = rho_s @ rho_t
    if not (st @ st @ st) == s2:
        raise RelationError("(rho(S) rho(T))^3 != rho(S)^2")

    group = build_sl2f3()
    rho: dict = {}
    gens = {S_MAT: rho_s, T_MAT: rho_t}
    for g in group.elements:  # BFS order: g = parent * (last letter), parent first
        if not g.word:
            rho[g.mat] = OmegaMat.identity(n)
            continue
        gen = S_MAT if g.word[-1] == "S" else T_MAT
        rho[g.mat] = rho[_mul2(g.mat, _inv2(gen))] @ gens[gen]
    return WeilRep(module, group, rho)


def _den9_stack(rep: WeilRep) -> tuple[np.ndarray, np.ndarray]:
    """The 24 rho(g), in group order, as float64 Z[w] numerators over the denominator 9.

    Raises RelationError if some rho(g) has a denominator that does not divide 9.
    """
    n = rep.dim()
    num_a = np.empty((rep.group.order, n, n))
    num_b = np.empty_like(num_a)
    for i, g in enumerate(rep.group.elements):
        r = rep.rho[g.mat]
        if 9 % r.den:
            raise RelationError(f"rho({g.word or 'E'}) has denominator {r.den}, "
                                "which does not divide 9")
        num_a[i], num_b[i] = r.a, r.b
        num_a[i] *= 9 // r.den
        num_b[i] *= 9 // r.den
    return num_a, num_b


def cayley_check(rep: WeilRep) -> int:
    """rho(g) rho(h) = rho(gh) over every pair; returns the pair count, 576.

    Let P(g) say rho(g) rho(h) = rho(gh) for all h.  If P(a) and P(b) hold,
    then rho(ab) rho(h) = rho(a) rho(b) rho(h) = rho(a) rho(bh) = rho(abh),
    so P(ab) holds.  rho(E) = I gives P(E), and build_sl2f3 reaches every
    element as a word in S and T, so P(S) and P(T) prove all 576 pairs.
    They are 48 products, each one _zw_matmul of den-9 numerators compared
    exactly with 9 times the numerators of rho(gh).
    """
    elements = rep.group.elements
    num_a, num_b = _den9_stack(rep)
    position = {g.mat: i for i, g in enumerate(elements)}
    if not rep.rho[elements[0].mat] == OmegaMat.identity(rep.dim()):
        raise RelationError("rho(E) is not the identity")

    for i in (position[S_MAT], position[T_MAT]):
        for j, h in enumerate(elements):
            a, b = _zw_matmul(num_a[i], num_b[i], num_a[j], num_b[j])
            k = position[_mul2(elements[i].mat, h.mat)]
            if not (np.array_equal(a, 9 * num_a[k]) and np.array_equal(b, 9 * num_b[k])):
                raise RelationError(f"rho({elements[i].word}) rho({h.word or 'E'}) "
                                    "disagrees with the product element")
    return len(elements) ** 2


# ---------------------------------------------------------------------------
# traces and character decomposition

class Decomposition(NamedTuple):
    traces: tuple  # CycQ per class, display order
    multiplicities: tuple[int, ...]  # over char indices 1..7


def character_decompose(rep: WeilRep) -> Decomposition:
    validate_character_table()
    per_class: dict[str, CycQ] = {}
    for g in rep.group.elements:
        tr = rep.rho[g.mat].trace()
        label = rep.group.class_of[g.mat]
        if label in per_class:
            if not per_class[label] == tr:
                raise RelationError(f"trace is not constant on class {label}")
        else:
            per_class[label] = tr
    traces = tuple(per_class[label] for label in CLASS_ORDER)
    mults = []
    order = sum(CLASS_SIZES)
    for i in sorted(CHARACTER_TABLE):
        acc = CycQ.rational(0)
        for size, chi_val, tr in zip(CLASS_SIZES, CHARACTER_TABLE[i], traces):
            acc = acc + Fraction(size) * chi_val.conjugate() * tr
        acc = acc * Fraction(1, order)
        if not acc.is_rational():
            raise RelationError(f"multiplicity of character {i} is irrational")
        val = acc.as_fraction()
        if val.denominator != 1 or val < 0:
            raise RelationError(f"multiplicity of character {i} is {val}")
        mults.append(int(val))
    dims = [int(CHARACTER_TABLE[i][0].as_fraction()) for i in sorted(CHARACTER_TABLE)]
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
        v = np.asarray(v, dtype=np.int64)
        return bool(np.array_equal(av, v * den) and not bv.any())


def isotypic_subspace(rep: WeilRep, char_index: int = 3) -> IsotypicSubspace:
    """Image of the isotypic projector (dim chi / 24) sum conj(chi(g)) rho(g).

    The sum is one _zw_matmul: the 1 x 24 row of dim chi * conj(chi(g)) in
    Z[w] times the 24 den-9 numerator matrices, each flattened to a row.
    """
    chi = CHARACTER_TABLE[char_index]
    dim_chi = int(chi[CLASS_ORDER.index("E")].as_fraction())
    xa, xb = _zw_rows({char_index: chi})
    group, n = rep.group, rep.dim()
    cls = [CLASS_ORDER.index(group.class_of[g.mat]) for g in group.elements]
    ca, cb = dim_chi * (xa - xb)[:, cls], -dim_chi * xb[:, cls]
    num_a, num_b = _den9_stack(rep)
    a, b = _zw_matmul(ca, cb, num_a.reshape(group.order, n * n),
                      num_b.reshape(group.order, n * n))
    proj = OmegaMat(a.reshape(n, n), b.reshape(n, n), 9 * group.order)
    if not proj @ proj == proj:
        raise RankError("isotypic operator is not idempotent")
    for gen in (rep.rho_S, rep.rho_T):
        if not gen @ proj == proj @ gen:
            raise RankError("isotypic operator does not commute with rho")
    tr = proj.trace()
    if not tr.is_rational() or tr.as_fraction().denominator != 1:
        raise RankError(f"projector trace {tr!r} is not an integer")
    # an idempotent over a field of characteristic 0 is diagonalizable with
    # eigenvalues 0 and 1, so its rank is its trace
    return IsotypicSubspace(proj, int(tr.as_fraction()))


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
    v = np.array(sv.vec, dtype=np.int64)

    av, bv, den = rep.rho_S.matvec_int(v)
    s_fixed = bool(np.array_equal(av, v * den) and not bv.any())

    av, bv, den = rep.rho_T.matvec_int(v)
    # w * v has a-part 0 and b-part v
    t_eigen = bool(den == 1 and np.array_equal(bv, v) and not av.any())

    # the reflection r in alpha negates v iff v[r(x)] = -v[x] for every x
    group = orthogonal_group(rep.module)
    negations = []
    for alpha in sv.basis.vectors:
        k = group.reflection(alpha)
        negations.append(k >= 0 and all(sv.vec[j] == -c for j, c in zip(group.perm[k], sv.vec)))

    return SpecialChecks(s_fixed, t_eigen, tuple(negations), subspace.contains_int_vector(v))


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
    """<chi, chi> for the O(q)-action on the image of an invariant projector.

    The orthogonal group permutes the basis e_alpha; the value is
    (1/|O|) sum_g |trace(P_g P)|^2, which equals 1 exactly when the image
    is O(q)-irreducible.  Raises InvarianceError if the image is not
    O(q)-stable (checked on the generators).
    """
    group = orthogonal_group(rep.module)
    inverse = np.argsort(_byte_rows(group.perm), axis=1)  # each row is a permutation
    for k in group.generator_rows:
        pinv = inverse[k]
        if not (np.array_equal(projector.a[np.ix_(pinv, pinv)], projector.a)
                and np.array_equal(projector.b[np.ix_(pinv, pinv)], projector.b)):
            raise InvarianceError("projector image is not stable under the "
                                  "orthogonal group")

    # trace(P_g P) = sum_i P[g^-1(i), i] for every g at once, as int64 sums of n entries
    n = rep.dim()
    _guard(n * projector.max_abs())
    idx = np.arange(n)
    xs = projector.a[inverse, idx].sum(axis=1).tolist()
    ys = projector.b[inverse, idx].sum(axis=1).tolist()
    total = sum(x * x - x * y + y * y for x, y in zip(xs, ys))
    return Fraction(total, projector.den * projector.den * group.order)
