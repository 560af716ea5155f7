"""Finite quadratic modules and the combinatorics of (F_3)^4.

A module is presented by cyclic generators: orders, the quadratic values
q(g_i) in Q/2Z and the pairings b(g_i, g_j) in Q/Z.  Elements are digit
tuples, ordered lexicographically throughout.  For an exponent-3 module,
`module_table` turns that data into memoized integer tables (Q = (3/2) q
and B = 3 b mod 3 from `gram3`, the index maps of -x and x + y, a type per
element), and everything else is enumerated from them: the four types of
the 81 elements, the pairing-count table, reflections, the orthogonal
group of order 1440 as one array of index permutations, the 15 orthogonal
bases.  `QuadraticModule.q`/`b` sum integer numerators over one
denominator and return reduced Fractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable

import numpy as np

Element = tuple  # digit tuples


class PairingConventionError(ValueError):
    """A pairing-table count depended on the chosen representative."""


class ReflectionError(ValueError):
    pass


class BasisError(ValueError):
    pass


# type labels in display order
TYPE_LABELS = ("00", "0", "1", "2")

# q of each type mod 2Z, displayed by a negative representative: the types
# 1 and 2 hold q = 2/3 and 4/3 (Q = 1 and 2 in the integer tables)
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
    # gen_q, gen_b and their common denominator D: q and b sum integers over D
    numerators: tuple = field(init=False, repr=False, compare=False)

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
        den = math.lcm(*(v.denominator for v in (*self.gen_q, *itertools.chain(*self.gen_b))))
        object.__setattr__(self, "numerators", (
            tuple(v.numerator * (den // v.denominator) for v in self.gen_q),
            tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in self.gen_b),
            den))

    # -- element arithmetic

    def elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(m) for m in self.orders)))

    def neg(self, x: Element) -> Element:
        return tuple((-xi) % m for xi, m in zip(x, self.orders))

    def q(self, x: Element) -> Fraction:
        """Quadratic value in [0, 2)."""
        q, b, den = self.numerators
        total = 0
        for i, xi in enumerate(x):
            if xi:  # x_i^2 q_i + 2 sum_(j > i) x_i x_j b_ij, over den
                total += xi * (xi * q[i] + 2 * sum(map(mul, x[i + 1:], b[i][i + 1:])))
        return Fraction(total % (2 * den), den)

    def b(self, x: Element, y: Element) -> Fraction:
        """Bilinear pairing in [0, 1)."""
        _, b, den = self.numerators
        total = sum(xi * yj * bij for xi, row in zip(x, b) if xi for yj, bij in zip(y, row))
        return Fraction(total % den, den)

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


def _scaled(rows) -> tuple[np.ndarray, int]:
    """An integer matrix N and a denominator L with rows = N / L."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return np.array([[int(v * den) for v in row] for row in rows], dtype=np.int64), den


def gram3(module: QuadraticModule) -> tuple[np.ndarray, np.ndarray]:
    """Q (N,) and B (N, N) over `module.elements()`: Q = (3/2) q and B = 3 b mod 3.

    Q(x) = x M x^T with M_ii = (3/2) q(g_i), M_ij = (3/2) b(g_i, g_j), and
    B(x, y) = x (3 b) y^T, each from an integer matmul of the element array
    over a common denominator.  The values on the generators come from the
    Fraction forms `module.q`/`b`, already reduced mod 2 and mod 1.  Raises
    ReflectionError if some value is not an integer before the reduction
    mod 3.
    """
    x = np.array(module.elements(), dtype=np.int64)
    r = len(module.orders)
    g = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    pair = [[module.b(gi, gj) for gj in g] for gi in g]
    gb, den_b = _scaled([[3 * v for v in row] for row in pair])
    gq, den_q = _scaled([[Fraction(3, 2) * (module.q(g[i]) if i == j else pair[i][j])
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


@dataclass(frozen=True, eq=False)
class ModuleTable:
    """Integer tables of an exponent-3 module, indexed in `elements()` order.

    Index i is the base-3 number with digits elements[i], so index 0 is the
    zero element and index order is lexicographic order.
    """

    elements: tuple[Element, ...]
    index: dict  # element -> index
    digits: np.ndarray  # (N, r) the elements as rows
    q: np.ndarray  # (N,) Q(x) = (3/2) q(x) mod 3
    b: np.ndarray  # (N, N) B(x, y) = 3 b(x, y) mod 3
    neg: np.ndarray  # (N,) index of -x
    add: np.ndarray  # (N, N) index of x + y
    kind: np.ndarray  # (N,) position of the type label in TYPE_LABELS
    unit: np.ndarray  # (r,) indices of the generators g_i

    def of_type(self, label: str) -> np.ndarray:
        """Indices of the elements of one type, ascending."""
        return np.flatnonzero(self.kind == TYPE_LABELS.index(label))

    def groups(self) -> dict[str, np.ndarray]:
        """Indices by type, labels in display order, empty types left out."""
        return {label: idx for label in TYPE_LABELS if (idx := self.of_type(label)).size}


_TABLE_MEMO: dict = {}


def module_table(module: QuadraticModule) -> ModuleTable:
    """The memoized integer tables of `module` (orders all 3)."""
    if module in _TABLE_MEMO:
        return _TABLE_MEMO[module]
    q, b = gram3(module)
    if any(m != 3 for m in module.orders):
        raise ValueError("the integer tables assume exponent 3")
    elements = module.elements()
    digits = np.array(elements, dtype=np.int64)
    unit = 3 ** np.arange(len(module.orders) - 1, -1, -1)  # so index(x) = digits(x) @ unit
    small = np.min_scalar_type(len(elements) - 1)  # index maps fit uint8 on (F_3)^4
    kind = q + 1  # Q = 0, 1, 2 give the types 0, 1, 2 (q = 0, 2/3, 4/3) ...
    kind[0] = 0  # ... and zero is type 00
    table = ModuleTable(elements, {x: i for i, x in enumerate(elements)}, digits, q, b,
                        ((-digits % 3) @ unit).astype(small),
                        (((digits[:, None] + digits[None]) % 3) @ unit).astype(small), kind, unit)
    for array in (digits, q, b, table.neg, table.add, kind, unit):
        array.flags.writeable = False  # every caller shares the memoized arrays
    _TABLE_MEMO[module] = table
    return table


def type_of(module: QuadraticModule, x: Element) -> str:
    """Type label of an element: 00 (zero), 0 (isotropic), 1, 2 by q-value."""
    t = module_table(module)
    return TYPE_LABELS[t.kind[t.index[x]]]


def classify(module: QuadraticModule) -> dict[str, tuple[Element, ...]]:
    """Elements grouped by type, keys in display order, values lex-sorted."""
    t = module_table(module)
    return {label: tuple(t.elements[i] for i in idx) for label, idx in t.groups().items()}


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
    t = module_table(module)
    columns = [int(3 * c) for c in PAIRING_COLUMNS]  # the B value of each column
    groups = t.groups()
    table: dict[tuple[str, str], tuple[int, int, int]] = {}
    for ulabel, us in groups.items():
        rows = np.arange(len(us))[:, None] * 3
        for vlabel, vs in groups.items():
            # counts[k, j]: members of the v-type pairing to column j with us[k]
            counts = np.bincount((rows + t.b[np.ix_(us, vs)]).ravel(),
                                 minlength=3 * len(us)).reshape(-1, 3)[:, columns]
            differ = np.flatnonzero((counts != counts[0]).any(axis=1))
            if differ.size:
                k = differ[0]
                raise PairingConventionError(
                    f"({ulabel}, {vlabel}): representative {t.elements[us[k]]} gives "
                    f"{tuple(counts[k].tolist())}, earlier representative gave "
                    f"{tuple(counts[0].tolist())}")
            table[(ulabel, vlabel)] = tuple(counts[0].tolist())
    return table


# -- reflections over F_3

def _reflected(t: ModuleTable, a: int, xs: np.ndarray) -> np.ndarray:
    """Indices of r_alpha(x) for the elements at indices xs; alpha at index a."""
    qa = int(t.q[a])
    if qa == 0:
        raise ReflectionError(f"{t.elements[a]} is isotropic; no reflection")
    c = (t.b[xs, a] * qa) % 3  # B(x, alpha) Q(alpha)^(-1): 1 and 2 are self-inverse mod 3
    return t.add[xs, np.array([0, t.neg[a], a])[c]]  # x - c alpha, as -2 alpha = alpha


@dataclass(frozen=True)
class Reflection:
    """The F_3-linear reflection in a non-isotropic element alpha."""

    module: QuadraticModule
    alpha: Element
    matrix: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        t = module_table(self.module)
        images = _reflected(t, t.index[self.alpha], t.unit)
        object.__setattr__(self, "matrix", tuple(map(tuple, t.digits[images].T.tolist())))


def reflect(module: QuadraticModule, alpha: Element) -> Reflection:
    """r_alpha(x) = x - B(x, alpha) Q(alpha)^(-1) alpha over F_3."""
    return Reflection(module, alpha)


# -- orthogonal group

def _keys(images: np.ndarray, n: int) -> np.ndarray:
    """Rows of indices (m, r) as base-n numbers: sorted iff the rows are."""
    return images.astype(np.int64) @ n ** np.arange(images.shape[-1] - 1, -1, -1)


def _locate(keys: np.ndarray, images: np.ndarray, n: int) -> np.ndarray:
    """Positions in `keys` of the rows of `images` (m, r), -1 where absent."""
    k = _keys(images, n)
    pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
    return np.where(keys[pos] == k, pos, -1)


@dataclass(frozen=True)
class OrthogonalGroup:
    """O(q) as permutations of the element indices.

    perm[k, i] is the index of the k-th map applied to elements[i].  The maps
    are sorted lexicographically by the indices of their images of the module
    generators g_j, and `keys` holds those index rows as base-N numbers.
    """

    module: QuadraticModule
    perm: np.ndarray = field(repr=False, compare=False)  # (order, N), small dtype
    keys: np.ndarray = field(repr=False, compare=False)  # (order,) ascending
    generator_rows: tuple[int, ...]
    orbits: tuple[tuple[Element, ...], ...]

    @property
    def order(self) -> int:
        return len(self.perm)

    def locate(self, images: np.ndarray) -> np.ndarray:
        """Rows of the maps sending g_j to images[:, j] (m, r); -1 where none does."""
        return _locate(self.keys, images, self.perm.shape[1])

    def reflection(self, alpha: Element) -> int:
        """Row of the reflection in alpha, -1 if it is not in the group."""
        t = module_table(self.module)
        return int(self.locate(_reflected(t, t.index[alpha], t.unit)[None, :])[0])


_GROUP_MEMO: dict = {}


def orthogonal_group(module: QuadraticModule) -> OrthogonalGroup:
    """All linear maps preserving q, by backtracking over generator images.

    A linear map preserves q on the whole module iff it preserves Q on the
    generators and B on pairs of them, because q of a combination is
    determined by that data.  Level k extends each partial map by every
    index c with Q(c) = Q(g_k) and B(image of g_i, c) = B(g_i, g_k) for
    i < k, in index order, so the maps come out sorted.
    """
    if module in _GROUP_MEMO:
        return _GROUP_MEMO[module]
    t = module_table(module)
    n = len(t.elements)
    images = np.zeros((1, 0), dtype=np.intp)
    for k, gk in enumerate(t.unit):
        ok = np.broadcast_to(t.q == t.q[gk], (len(images), n))
        for i in range(k):
            ok = ok & (t.b[images[:, i]] == t.b[t.unit[i], gk])
        parent, cand = np.nonzero(ok)
        images = np.column_stack([images[parent], cand])

    # g(x) = sum_i x_i g(g_i), one digit at a time through the add table
    perm = np.zeros((len(images), 1), dtype=t.add.dtype)
    for i in range(len(t.unit)):
        img = images[:, i].astype(t.add.dtype)
        multiples = np.stack([np.zeros_like(img), img, t.neg[img]], axis=1)
        perm = t.add[perm[:, :, None], multiples[:, None, :]].reshape(len(images), -1)

    # orbit partition of the nonzero elements
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    orbits = []
    for i in range(n):
        if not seen[i]:
            orbit = np.flatnonzero(np.bincount(perm[:, i], minlength=n))
            seen[orbit] = True
            orbits.append(tuple(t.elements[j] for j in orbit))

    keys = _keys(images, n)
    perm.flags.writeable = keys.flags.writeable = False
    result = OrthogonalGroup(module, perm, keys, _generating_rows(perm, keys, t.unit),
                             tuple(orbits))
    _GROUP_MEMO[module] = result
    return result


def _generating_rows(perm: np.ndarray, keys: np.ndarray, unit: np.ndarray) -> tuple[int, ...]:
    """A small deterministic generating set: each row the earlier ones miss."""
    n = perm.shape[1]
    identity = int(_locate(keys, unit[None, :], n)[0])
    rows: list[int] = []
    closure = np.zeros(len(perm), dtype=bool)
    closure[identity] = True
    for k in range(len(perm)):
        if closure[k]:
            continue
        rows.append(k)
        frontier = np.flatnonzero(closure)  # the group generated so far, grown by g_k
        while frontier.size:
            # m h sends g_j to m(h(g_j)): gather the frontier rows at h's images
            found = np.concatenate([_locate(keys, perm[frontier[:, None], perm[h, unit]], n)
                                    for h in rows])
            if (found < 0).any():
                raise ValueError("the enumerated isometries are not closed under composition")
            frontier = np.flatnonzero(np.bincount(found[~closure[found]], minlength=len(perm)))
            closure[frontier] = True
        if closure.all():
            break
    return tuple(rows)


def central_negation(group: OrthogonalGroup) -> bool:
    """True iff -identity belongs to the group (it is automatically central)."""
    t = module_table(group.module)
    return bool(group.locate(t.neg[t.unit][None, :])[0] >= 0)


def involutive_reflections(group: OrthogonalGroup) -> tuple[Element, ...]:
    """Canonical non-isotropic classes whose reflection is an involution in the group."""
    t = module_table(group.module)
    idx = np.arange(len(t.elements))
    out = []
    for a in np.flatnonzero((t.kind >= TYPE_LABELS.index("1")) & (idx <= t.neg)):
        k = group.reflection(t.elements[a])
        if k >= 0 and np.array_equal(group.perm[k][group.perm[k]], idx):
            out.append(t.elements[a])
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
    a BasisError reports any ambiguity.
    """
    t = module_table(module)
    canonical = np.arange(len(t.elements)) <= t.neg  # x is the lex-least of x, -x
    short = np.flatnonzero((t.kind == TYPE_LABELS.index("2")) & canonical)
    bases = []
    for a0 in np.flatnonzero((t.kind == TYPE_LABELS.index("1")) & canonical):
        alpha0 = t.elements[a0]
        candidates = short[t.b[short, a0] == 0]
        ortho = t.b[np.ix_(candidates, candidates)] == 0
        completions = [
            triple for triple in itertools.combinations(range(len(candidates)), 3)
            if all(ortho[triple[i], triple[j]] for i in range(3) for j in range(i + 1, 3))
        ]
        if len(completions) != 1:
            raise BasisError(
                f"alpha0 = {alpha0}: {len(completions)} orthogonal completions")
        rest = tuple(t.elements[candidates[i]] for i in completions[0])
        # the four span: they are pairwise orthogonal with B(a, a) = 2 Q(a) != 0
        # (types 1 and 2), so pairing sum c_i alpha_i = 0 with alpha_j gives c_j = 0
        bases.append(OrthoBasis(alpha0, rest))
    return tuple(bases)


def isotropic_incidence(module: QuadraticModule, basis: OrthoBasis) -> dict[Element, tuple[int, ...]]:
    """For each nonzero isotropic x, the indices i with b(x, alpha_i) = 0.

    Every nonzero isotropic element must pair to zero with at least one
    basis member; the returned dict records which.
    """
    t = module_table(module)
    isotropic = t.of_type("0")
    zero = t.b[np.ix_(isotropic, [t.index[a] for a in basis.vectors])] == 0
    return {t.elements[x]: tuple(np.flatnonzero(row).tolist())
            for x, row in zip(isotropic, zero)}


def element_str(x: Element) -> str:
    return "".join(str(d) for d in x)
