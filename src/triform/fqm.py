"""Finite quadratic modules and the combinatorics of (F_3)^4.

A module is presented by cyclic generators: orders, the quadratic values
q(g_i) in Q/2Z and the pairings b(g_i, g_j) in Q/Z.  Everything else
(classification of the 81 elements into types, the pairing-count table,
reflections, the orthogonal group of order 1440, the 15 orthogonal bases)
is enumerated from that data.

Elements are digit tuples, ordered lexicographically throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .exact import mat_det, mat_identity

Element = tuple  # digit tuples


class PairingConventionError(ValueError):
    """A pairing-table count depended on the chosen representative."""


class ReflectionError(ValueError):
    pass


class BasisError(ValueError):
    pass


# type labels in display order
TYPE_LABELS = ("00", "0", "1", "2")

# q values (mod 2Z) that define the nonzero types of the rank-4 module:
# label "1" is written -4/3 elsewhere, "2" is -2/3; mod 2Z those are 2/3, 4/3.
TYPE_Q = {"1": Fraction(2, 3), "2": Fraction(4, 3)}

# displayed (negative) representatives of the same classes mod 2Z
TYPE_Q_DISPLAY = {"00": Fraction(0), "0": Fraction(0),
                  "1": Fraction(-4, 3), "2": Fraction(-2, 3)}

# sign-pattern description of the four types: each pattern stands for all
# elements obtained by putting 1 or 2 in its nonzero slots
TYPE_PATTERNS = {
    "00": ((0, 0, 0, 0),),
    "0": ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 1)),
    "1": ((1, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)),
    "2": ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)),
}


def expand_patterns(patterns: Iterable[Element]) -> frozenset:
    """All sign choices of the given patterns (nonzero slots become 1 or 2)."""
    out = set()
    for pat in patterns:
        slots = [i for i, d in enumerate(pat) if d]
        for signs in itertools.product((1, 2), repeat=len(slots)):
            x = list(pat)
            for i, s in zip(slots, signs):
                x[i] = s
            out.add(tuple(x))
    return frozenset(out)


@dataclass(frozen=True)
class QuadraticModule:
    """Finite quadratic module on a product of cyclic groups.

    `orders[i]` is the order of generator g_i, `gen_q[i]` = q(g_i) mod 2,
    `gen_b[i][j]` = b(g_i, g_j) mod 1.  q of a general element follows from
    q(sum x_i g_i) = sum x_i^2 q(g_i) + 2 sum_{i<j} x_i x_j b(g_i, g_j).
    """

    orders: tuple[int, ...]
    gen_q: tuple[Fraction, ...]
    gen_b: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.orders)
        if not (len(self.gen_q) == n and len(self.gen_b) == n
                and all(len(row) == n for row in self.gen_b)):
            raise ValueError("generator data sizes disagree")
        for i in range(n):
            for j in range(n):
                if self.gen_b[i][j] != self.gen_b[j][i]:
                    raise ValueError("pairing matrix must be symmetric")
                # b must kill the generator orders
                if (self.gen_b[i][j] * self.orders[i]) % 1 != 0:
                    raise ValueError("pairing does not respect generator order")
            if (self.gen_q[i] * self.orders[i] * self.orders[i]) % 2 != 0:
                raise ValueError("quadratic value does not respect generator order")

    # -- element arithmetic

    def elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(m) for m in self.orders)))

    def zero(self) -> Element:
        return tuple(0 for _ in self.orders)

    def neg(self, x: Element) -> Element:
        return tuple((-xi) % m for xi, m in zip(x, self.orders))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + c) % m for a, c, m in zip(x, y, self.orders))

    def q(self, x: Element) -> Fraction:
        """Quadratic value in [0, 2)."""
        total = Fraction(0)
        for i, xi in enumerate(x):
            total += xi * xi * self.gen_q[i]
            for j in range(i + 1, len(x)):
                total += 2 * xi * x[j] * self.gen_b[i][j]
        return total % 2

    def b(self, x: Element, y: Element) -> Fraction:
        """Bilinear pairing in [0, 1)."""
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * self.gen_b[i][j]
        return total % 1

    def order(self) -> int:
        n = 1
        for m in self.orders:
            n *= m
        return n

    def q_histogram(self) -> dict[Fraction, int]:
        hist: dict[Fraction, int] = {}
        for x in self.elements():
            v = self.q(x)
            hist[v] = hist.get(v, 0) + 1
        return hist


def paper_module() -> QuadraticModule:
    """The rank-4 module over F_3 with q(x) = (2/3)(x1^2 - x2^2 - x3^2 - x4^2).

    One positive generator and three negative ones; all pairings between
    distinct generators vanish.
    """
    zero = Fraction(0)
    return QuadraticModule(
        orders=(3, 3, 3, 3),
        gen_q=(Fraction(2, 3), Fraction(4, 3), Fraction(4, 3), Fraction(4, 3)),
        gen_b=(
            (Fraction(2, 3), zero, zero, zero),
            (zero, Fraction(1, 3), zero, zero),
            (zero, zero, Fraction(1, 3), zero),
            (zero, zero, zero, Fraction(1, 3)),
        ),
    )


def type_of(module: QuadraticModule, x: Element) -> str:
    """Type label of an element: 00 (zero), 0 (isotropic), 1, 2 by q-value."""
    if all(d == 0 for d in x):
        return "00"
    qv = module.q(x)
    if qv == 0:
        return "0"
    for label, value in TYPE_Q.items():
        if qv == value:
            return label
    return f"q={qv}"


def classify(module: QuadraticModule) -> dict[str, tuple[Element, ...]]:
    """Elements grouped by type, keys in display order, values lex-sorted."""
    groups: dict[str, list[Element]] = {}
    for x in module.elements():
        groups.setdefault(type_of(module, x), []).append(x)
    ordered: dict[str, tuple[Element, ...]] = {}
    for label in TYPE_LABELS:
        if label in groups:
            ordered[label] = tuple(groups.pop(label))
    for label in sorted(groups):
        ordered[label] = tuple(groups[label])
    return ordered


# pairing value <-> column index: j = 0, 1, 2 counts b = 0, 2/3, 1/3
PAIRING_COLUMNS = (Fraction(0), Fraction(2, 3), Fraction(1, 3))

# the expected multiplicity table of the rank-4 module, as a cross-check
REFERENCE_TABLE = {
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


def pairing_table(module: QuadraticModule) -> dict[tuple[str, str], tuple[int, int, int]]:
    """Counts m_j(u, v) = #{v' of the v-type : b(u, v') = column j}.

    The triple must be independent of which representative u of the u-type
    is chosen; this is verified over every u and a PairingConventionError
    is raised otherwise.
    """
    types = classify(module)
    table: dict[tuple[str, str], tuple[int, int, int]] = {}
    for ulabel, uelems in types.items():
        for vlabel, velems in types.items():
            seen: tuple[int, int, int] | None = None
            for u in uelems:
                counts = [0, 0, 0]
                for v in velems:
                    bv = module.b(u, v)
                    try:
                        counts[PAIRING_COLUMNS.index(bv)] += 1
                    except ValueError:
                        raise PairingConventionError(
                            f"pairing value {bv} outside the three columns")
                triple = tuple(counts)
                if seen is None:
                    seen = triple
                elif seen != triple:
                    raise PairingConventionError(
                        f"({ulabel}, {vlabel}): representative {u} gives {triple}, "
                        f"earlier representative gave {seen}")
            table[(ulabel, vlabel)] = seen  # type: ignore[assignment]
    return table


# -- reflections over F_3

def _q3(module: QuadraticModule, x: Element) -> int:
    """Integer quadratic form Q(x) = (3/2) q(x) mod 3."""
    v = (Fraction(3, 2) * module.q(x)) % 3
    if v.denominator != 1:
        raise ReflectionError(f"q({x}) = {module.q(x)} is not a third-integer")
    return int(v)


def _b3(module: QuadraticModule, x: Element, y: Element) -> int:
    """Integer pairing B(x, y) = 3 b(x, y) mod 3; polarization of _q3."""
    v = (3 * module.b(x, y)) % 3
    if v.denominator != 1:
        raise ReflectionError("pairing is not third-integer")
    return int(v)


def _scaled(rows) -> tuple[np.ndarray, int]:
    """An integer matrix N and a denominator L with rows = N / L."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return np.array([[int(v * den) for v in row] for row in rows], dtype=np.int64), den


def gram3(module: QuadraticModule) -> tuple[np.ndarray, np.ndarray]:
    """Q (N,) and B (N, N): _q3 and _b3 over `module.elements()`, all at once.

    Q(x) = x M x^T with M_ii = (3/2) q(g_i), M_ij = (3/2) b(g_i, g_j), and
    B(x, y) = x (3 b) y^T, each from an integer matmul of the element array
    over a common denominator.  Raises ReflectionError where _q3 or _b3
    would: some value is not an integer before the reduction mod 3.
    """
    x = np.array(module.elements(), dtype=np.int64)
    r = len(module.orders)
    gb, den_b = _scaled([[3 * v for v in row] for row in module.gen_b])
    gq, den_q = _scaled([[Fraction(3, 2) * (module.gen_q[i] if i == j else module.gen_b[i][j])
                          for j in range(r)] for i in range(r)])
    digits = (max(module.orders) - 1) * r  # bounds sum_i |x_i| over an element
    if digits * digits * max(int(np.abs(gb).max()), int(np.abs(gq).max())) >= 1 << 63:
        raise OverflowError("Gram matrix too large for the int64 tables")
    b = (x @ gb) @ x.T
    q = ((x @ gq) * x).sum(axis=1)
    if (q % den_q).any():
        raise ReflectionError("a quadratic value is not a third-integer")
    if (b % den_b).any():
        raise ReflectionError("pairing is not third-integer")
    return (q // den_q) % 3, (b // den_b) % 3


@dataclass(frozen=True)
class Reflection:
    """The F_3-linear reflection in a non-isotropic element alpha."""

    module: QuadraticModule
    alpha: Element
    matrix: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        m = self.module
        qa = _q3(m, self.alpha)
        if qa == 0:
            raise ReflectionError(f"{self.alpha} is isotropic; no reflection")
        inv = qa  # 1 and 2 are their own inverses mod 3
        n = len(m.orders)
        cols = []
        for j in range(n):
            e = tuple(1 if i == j else 0 for i in range(n))
            coeff = (_b3(m, e, self.alpha) * inv) % 3
            cols.append(tuple((e[i] - coeff * self.alpha[i]) % 3 for i in range(n)))
        object.__setattr__(self, "matrix", tuple(zip(*cols)))

    def __call__(self, x: Element) -> Element:
        return apply_matrix(self.matrix, x)


def reflect(module: QuadraticModule, alpha: Element) -> Reflection:
    """r_alpha(x) = x - B(x, alpha) Q(alpha)^(-1) alpha over F_3."""
    return Reflection(module, alpha)


def apply_matrix(matrix: tuple[tuple[int, ...], ...], x: Element) -> Element:
    n = len(matrix)
    return tuple(sum(matrix[i][j] * x[j] for j in range(n)) % 3 for i in range(n))


# -- orthogonal group

@dataclass(frozen=True)
class OrthogonalGroup:
    module: QuadraticModule
    elements: tuple[tuple[tuple[int, ...], ...], ...]
    generators: tuple[tuple[tuple[int, ...], ...], ...]
    orbits: tuple[tuple[Element, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


_GROUP_MEMO: dict = {}


def orthogonal_group(module: QuadraticModule) -> OrthogonalGroup:
    """All linear maps preserving q, by backtracking over generator images.

    A linear map preserves q on the whole module iff it preserves q on the
    generators and their pairwise pairings, because q of a combination is
    determined by that data.
    """
    if module in _GROUP_MEMO:
        return _GROUP_MEMO[module]
    if any(m != 3 for m in module.orders):
        raise ValueError("orthogonal-group enumeration assumes exponent 3")
    n = len(module.orders)
    gens = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    elems = module.elements()
    qval = {x: module.q(x) for x in elems}
    bval = {(x, y): module.b(x, y) for x in elems for y in elems}
    matrices: list[tuple[tuple[int, ...], ...]] = []

    def extend(images: list[Element]):
        k = len(images)
        if k == n:
            matrices.append(tuple(zip(*images)))
            return
        for cand in elems:
            if qval[cand] != qval[gens[k]]:
                continue
            ok = True
            for i in range(k):
                if bval[(images[i], cand)] != bval[(gens[i], gens[k])]:
                    ok = False
                    break
            if ok:
                extend(images + [cand])

    extend([])
    group = tuple(matrices)

    # orbit partition of the nonzero elements
    seen: set[Element] = set()
    orbits: list[tuple[Element, ...]] = []
    for x in elems:
        if x == module.zero() or x in seen:
            continue
        orbit = sorted({apply_matrix(g, x) for g in group})
        seen.update(orbit)
        orbits.append(tuple(orbit))

    # a small deterministic generating set
    generators: list[tuple[tuple[int, ...], ...]] = []
    closure = {_matrix_key(mat_identity(n))}
    for g in group:
        if _matrix_key(g) in closure:
            continue
        generators.append(g)
        closure = _close(generators, n)
        if len(closure) == len(group):
            break

    result = OrthogonalGroup(module, group, tuple(generators), tuple(orbits))
    _GROUP_MEMO[module] = result
    return result


def _matrix_key(m) -> tuple:
    return tuple(map(tuple, m))


def _mat_mul3(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % 3
                       for j in range(n)) for i in range(n))


def _close(generators, n):
    frontier = [mat_identity(n)]
    seen = {_matrix_key(frontier[0])}
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                p = _mat_mul3(m, g)
                k = _matrix_key(p)
                if k not in seen:
                    seen.add(k)
                    nxt.append(p)
        frontier = nxt
    return seen


def central_negation(group: OrthogonalGroup) -> bool:
    """True iff -identity belongs to the group (it is automatically central)."""
    n = len(group.module.orders)
    neg = tuple(tuple((-v) % 3 for v in row) for row in mat_identity(n))
    return neg in group.elements


def involutive_reflections(group: OrthogonalGroup) -> tuple[Element, ...]:
    """Canonical non-isotropic classes whose reflection is an involution in the group."""
    m = group.module
    out = []
    element_set = set(group.elements)
    for alpha in m.elements():
        if type_of(m, alpha) not in ("1", "2"):
            continue
        if canonical_sign(m, alpha) != alpha:
            continue
        r = reflect(m, alpha)
        if (r.matrix in element_set
                and _mat_mul3(r.matrix, r.matrix) == mat_identity(len(m.orders))):
            out.append(alpha)
    return tuple(out)


# -- orthogonal bases

def canonical_sign(module: QuadraticModule, x: Element) -> Element:
    """Lexicographically least of {x, -x}."""
    return min(x, module.neg(x))


@dataclass(frozen=True)
class OrthoBasis:
    """An orthogonal basis alpha_0 (type 1), alpha_1..alpha_3 (type 2).

    All four are canonical sign representatives; alpha_1..alpha_3 are in
    lexicographic order.
    """

    alpha0: Element
    rest: tuple[Element, Element, Element]

    @property
    def vectors(self) -> tuple[Element, ...]:
        return (self.alpha0,) + self.rest


def orthogonal_bases(module: QuadraticModule) -> tuple[OrthoBasis, ...]:
    """The orthogonal bases keyed by their type-1 member.

    For each canonical type-1 class there must be exactly one way (up to
    signs) to complete it with three pairwise-orthogonal type-2 classes;
    a BasisError reports any ambiguity.  The completion is also checked to
    span, i.e. the four vectors form an F_3-basis.
    """
    types = classify(module)
    bases = []
    for alpha0 in types.get("1", ()):
        if canonical_sign(module, alpha0) != alpha0:
            continue
        candidates = sorted({
            canonical_sign(module, v) for v in types.get("2", ())
            if module.b(v, alpha0) == 0
        })
        completions = [
            triple for triple in itertools.combinations(candidates, 3)
            if all(module.b(triple[i], triple[j]) == 0
                   for i in range(3) for j in range(i + 1, 3))
        ]
        if len(completions) != 1:
            raise BasisError(
                f"alpha0 = {alpha0}: {len(completions)} orthogonal completions")
        rest = completions[0]
        if mat_det((alpha0,) + rest) % 3 == 0:  # not invertible over F_3
            raise BasisError(f"alpha0 = {alpha0}: completion does not span")
        bases.append(OrthoBasis(alpha0, rest))
    return tuple(bases)


def isotropic_incidence(module: QuadraticModule, basis: OrthoBasis) -> dict[Element, tuple[int, ...]]:
    """For each nonzero isotropic x, the indices i with b(x, alpha_i) = 0.

    Every nonzero isotropic element must pair to zero with at least one
    basis member; the returned dict records which.
    """
    out: dict[Element, tuple[int, ...]] = {}
    for x in classify(module).get("0", ()):
        hits = tuple(i for i, a in enumerate(basis.vectors) if module.b(x, a) == 0)
        out[x] = hits
    return out


def element_str(x: Element) -> str:
    return "".join(str(d) for d in x)
