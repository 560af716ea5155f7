"""Finite quadratic modules and the combinatorics of (F_3)^4.

A module is presented by cyclic generators: orders, the quadratic values
q(g_i) in Q/2Z and the pairings b(g_i, g_j) in Q/Z.  Elements are digit
tuples, ordered lexicographically throughout.  For an exponent-3 module,
`module_table` turns that data into memoized tables of Python bytes (Q =
(3/2) q and B = 3 b mod 3 from `gram3`, the index maps of -x and x + y, a
type per element), and everything else is enumerated from them: the four
types of the 81 elements, the pairing-count table, the aggregated 4 x 4
action, reflections, the orthogonal group of order 1440 as bytes rows of
index permutations, the 15 orthogonal bases.

The tables are built by walking the elements in lex order.  With k the
last nonzero digit of x, x - g_k comes earlier, and Q(x) = Q(x - g_k) +
Q(g_k) + B(x - g_k, g_k); row x of B is row x - g_k plus the row of g_k,
whose entries B(g_k, y) are the generator Gram row k applied to y; add[x]
is add[x - g_k] translated (bytes.translate) through the add row of g_k.
O(q) is the closure of the reflections, composed by bytes.translate;
`orthogonal_group` proves that the closure is all of O(q) when the
pairing is nondegenerate.  `QuadraticModule.q`/`b` sum integer numerators
over one denominator and return reduced Fractions.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, NamedTuple

from .exact import OMEGA, W_POWERS, CycQ, mat_eq, mat_from_rows

Element = tuple  # digit tuples


class PairingConventionError(ValueError):
    """A pairing-table count depended on the chosen representative."""


class ReflectionError(ValueError):
    pass


class BasisError(ValueError):
    pass


class DualMismatchError(ValueError):
    """The aggregated 4-dimensional action disagreed with the frozen display."""


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
    return frozenset(x for pat in patterns
                     for x in itertools.product(*((1, 2) if d else (0,) for d in pat)))


class QuadraticModule:
    """Finite quadratic module on a product of cyclic groups.

    `orders[i]` is the order of generator g_i; the form is held as integer
    numerators over one denominator, q(g_i) = q[i] / den mod 2 and
    b(g_i, g_j) = b[i][j] / den mod 1.  q of a general element follows from
    q(sum x_i g_i) = sum x_i^2 q(g_i) + 2 sum_{i<j} x_i x_j b(g_i, g_j).
    `numerators` = (q, b, den) is divided by the gcd of all its entries, so
    one form has one presentation: the memos key on (orders, numerators).
    """

    __slots__ = ("orders", "numerators")

    def __init__(self, orders: tuple[int, ...], q: tuple[int, ...],
                 b: tuple[tuple[int, ...], ...], den: int):
        if den < 1:
            raise ValueError("denominator must be at least 1")
        g = math.gcd(den, *q, *itertools.chain(*b))
        self.orders, self.numerators = orders, (
            tuple(v // g for v in q), tuple(tuple(v // g for v in row) for row in b), den // g)
        q, b, den = self.numerators
        n = len(orders)
        if not (len(q) == n and len(b) == n and all(len(row) == n for row in b)):
            raise ValueError("generator data sizes disagree")
        for i, m in enumerate(orders):
            for j in range(n):
                if b[i][j] != b[j][i]:
                    raise ValueError("pairing matrix must be symmetric")
                if b[i][j] * m % den:  # b must kill the generator orders
                    raise ValueError("pairing does not respect generator order")
            if q[i] * m * m % (2 * den):
                raise ValueError("quadratic value does not respect generator order")

    def __eq__(self, other):
        if type(other) is not QuadraticModule:
            return NotImplemented
        return (self.orders, self.numerators) == (other.orders, other.numerators)

    def __hash__(self):
        return hash((self.orders, self.numerators))

    # -- element arithmetic

    def elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(m) for m in self.orders)))

    def neg(self, x: Element) -> Element:
        return tuple((-xi) % m for xi, m in zip(x, self.orders))

    def q(self, x: Element) -> Fraction:
        """Quadratic value in [0, 2)."""
        return Fraction(self._q_numerator(x), self.numerators[2])

    def _q_numerator(self, x: Element) -> int:
        """D q(x) mod 2D, D the common denominator."""
        q, b, den = self.numerators
        total = 0
        for i, xi in enumerate(x):
            if xi:  # x_i^2 q_i + 2 sum_(j > i) x_i x_j b_ij, over den
                total += xi * (xi * q[i] + 2 * sum(map(mul, x[i + 1:], b[i][i + 1:])))
        return total % (2 * den)

    def b(self, x: Element, y: Element) -> Fraction:
        """Bilinear pairing in [0, 1)."""
        _, b, den = self.numerators
        total = sum(xi * yj * bij for xi, row in zip(x, b) if xi for yj, bij in zip(y, row))
        return Fraction(total % den, den)

    def order(self) -> int:
        return math.prod(self.orders)

    def q_histogram(self) -> dict[Fraction, int]:
        counts = Counter(map(self._q_numerator, self.elements()))  # one Fraction per value
        return {Fraction(v, self.numerators[2]): count for v, count in counts.items()}


def paper_module() -> QuadraticModule:
    """The rank-4 module over F_3 with q(x) = (2/3)(x1^2 - x2^2 - x3^2 - x4^2).

    One positive generator and three negative ones; all pairings between
    distinct generators vanish.
    """
    return QuadraticModule((3, 3, 3, 3), (2, 4, 4, 4),
                           tuple(tuple(v if i == j else 0 for j in range(4))
                                 for i, v in enumerate((2, 1, 1, 1))), 3)


def _steps(elements: tuple[Element, ...]):
    """(k, x - g_k) for each nonzero index x, k its last nonzero digit: x - 3^(r-1-k)."""
    for x, digits in enumerate(elements[1:], 1):
        k = max(i for i, d in enumerate(digits) if d)
        yield k, x - 3 ** (len(digits) - 1 - k)


_MOD3 = bytes(v % 3 for v in range(256))


def gram3(module: QuadraticModule) -> tuple[bytes, tuple[bytes, ...]]:
    """Q and B over `module.elements()`: Q = (3/2) q and B = 3 b mod 3, as bytes.

    The values on the generators come from `module.q`/`b`; see the module
    docstring for the recurrence.  Raises ReflectionError if some value is
    not a third-integer (by the recurrence, every Q is an integer iff Q(g_i)
    and B(g_i, g_j), i != j, are), and ValueError unless the exponent is 3.
    """
    r = len(module.orders)
    g = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    gram = [[3 * module.b(gi, gj) for gj in g] for gi in g]
    gen_q = [Fraction(3, 2) * module.q(gi) for gi in g]
    if any(v.denominator != 1 for v in gen_q) or any(
            gram[i][j].denominator != 1 for i in range(r) for j in range(i)):
        raise ReflectionError("a quadratic value is not a third-integer")
    if any(gram[i][i].denominator != 1 for i in range(r)):
        raise ReflectionError("pairing is not third-integer")
    if any(m != 3 for m in module.orders):
        raise ValueError("the integer tables assume exponent 3")
    elements = module.elements()
    gram = [[int(v) for v in row] for row in gram]
    gen_rows = [bytes(sum(map(mul, row, y)) % 3 for y in elements) for row in gram]
    q, b = bytearray(1), [bytes(len(elements))]
    for k, y in _steps(elements):
        q.append((q[y] + int(gen_q[k]) + gen_rows[k][y]) % 3)
        # rows added as base-256 numbers: every byte sum is at most 4, so none carries
        b.append((int.from_bytes(b[y], "big") + int.from_bytes(gen_rows[k], "big"))
                 .to_bytes(len(elements), "big").translate(_MOD3))
    return bytes(q), tuple(b)


class ModuleTable(NamedTuple):
    """Integer tables of an exponent-3 module, indexed in `elements()` order.

    Index i is the base-3 number with digits elements[i], so index 0 is the
    zero element and index order is lexicographic order.  Every table is
    bytes, so an index fits one byte: at most 256 elements.
    """

    elements: tuple[Element, ...]
    index: dict  # element -> index
    q: bytes  # Q(x) = (3/2) q(x) mod 3
    b: tuple[bytes, ...]  # b[x][y] = B(x, y) = 3 b(x, y) mod 3
    neg: bytes  # index of -x
    add: tuple[bytes, ...]  # add[x][y] = index of x + y
    kind: bytes  # position of the type label in TYPE_LABELS
    unit: tuple[int, ...]  # indices of the generators g_i

    def of_type(self, label: str) -> tuple[int, ...]:
        """Indices of the elements of one type, ascending."""
        k = TYPE_LABELS.index(label)
        return tuple(i for i, kind in enumerate(self.kind) if kind == k)

    def groups(self) -> dict[str, tuple[int, ...]]:
        """Indices by type, labels in display order, empty types left out."""
        return {label: idx for label in TYPE_LABELS if (idx := self.of_type(label))}


_TABLE_MEMO: dict = {}
_KIND = bytes((1, 2, 3)) + bytes(253)  # Q = 0, 1, 2 -> the types 0, 1, 2 (q = 0, 2/3, 4/3)


def module_table(module: QuadraticModule) -> ModuleTable:
    """The memoized integer tables of `module` (orders all 3, at most 256 elements)."""
    if (table := _TABLE_MEMO.get(module)) is not None:
        return table
    elements = module.elements()
    n, r = len(elements), len(module.orders)
    if n > 256:  # an index fills one byte, and a bytes.translate table has 256 entries
        raise ValueError(f"{n} elements: the byte tables hold at most 256")
    q, b = gram3(module)
    unit = tuple(3 ** (r - 1 - k) for k in range(r))
    # index of y + g_k: digit k of y steps up, from 2 back to 0
    step = [bytes(i - 2 * s if y[k] == 2 else i + s for i, y in enumerate(elements))
            .ljust(256, b"\0") for k, s in enumerate(unit)]
    add = [bytes(range(n))]
    for k, y in _steps(elements):
        add.append(add[y].translate(step[k]))
    table = ModuleTable(elements, {x: i for i, x in enumerate(elements)}, q, b,
                        bytes(row.index(0) for row in add), tuple(add),
                        b"\0" + q[1:].translate(_KIND), unit)  # zero is type 00
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

# the expected multiplicity table of the rank-4 module, as a cross-check:
# one row of v-types per u-type, both in TYPE_LABELS order
REFERENCE_TABLE = dict(zip(itertools.product(TYPE_LABELS, repeat=2), (
    (1, 0, 0), (20, 0, 0), (30, 0, 0), (30, 0, 0),
    (1, 0, 0), (2, 9, 9), (12, 9, 9), (12, 9, 9),
    (1, 0, 0), (8, 6, 6), (12, 9, 9), (6, 12, 12),
    (1, 0, 0), (8, 6, 6), (6, 12, 12), (12, 9, 9))))


def pairing_table(module: QuadraticModule) -> dict[tuple[str, str], tuple[int, int, int]]:
    """Counts m_j(u, v) = #{v' of the v-type : b(u, v') = column j}.

    The triple must be independent of which representative u of the u-type
    is chosen; this is verified over every u and a PairingConventionError
    is raised otherwise.
    """
    return _pairing_counts(module_table(module))


def _pairing_counts(t: ModuleTable) -> dict[tuple[str, str], tuple[int, int, int]]:
    columns = [int(3 * c) for c in PAIRING_COLUMNS]  # the B value of each column
    # 3 kind(v) + B(u, v) over v: rows added as base-256 numbers, no byte sum carries
    kinds, n = int.from_bytes(bytes(3 * k for k in t.kind), "big"), len(t.elements)
    keyed = [(kinds + int.from_bytes(row, "big")).to_bytes(n, "big") for row in t.b]
    table = {}
    groups = t.groups()
    for (ulabel, us), vlabel in itertools.product(groups.items(), groups):
        k = 3 * TYPE_LABELS.index(vlabel)
        counts = [tuple(keyed[u].count(k + c) for c in columns) for u in us]
        for u, triple in zip(us, counts):
            if triple != counts[0]:
                raise PairingConventionError(
                    f"({ulabel}, {vlabel}): representative {t.elements[u]} gives "
                    f"{triple}, earlier representative gave {counts[0]}")
        table[(ulabel, vlabel)] = counts[0]
    return table


# the displayed aggregated pair: rho*_T = diag(1, 1, w^2, w), rho*_S = -(1/9) times these rows
_AGG_T = mat_from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, OMEGA * OMEGA, 0], [0, 0, 0, OMEGA]])
_AGG_S = mat_from_rows([[Fraction(-x, 9) for x in row] for row in (
    (1, 1, 1, 1), (20, -7, 2, 2), (30, 3, 3, -6), (30, 3, -6, 3))])


def aggregated_action(module: QuadraticModule):
    """(rho*_T, rho*_S): the conjugated Weil action compressed to the types.

    Row t, column s of rho*_S is sum_(delta of type t) conj(rho(S)[delta,
    alpha]) = -(1/9) sum_delta w^B(delta, alpha) for alpha of type s.  With
    (m0, m1, m2) = pairing_table[(s, t)], the counts of B = 0, 2, 1, that is
    -(1/9)((m0 - m1) + (m2 - m1) w); the count raises
    PairingConventionError if it depends on alpha.  rho*_T is diagonal,
    conj(w^Q) at each type, which is a class of Q.  Raises
    DualMismatchError if the pair differs from the frozen display values.
    """
    t = module_table(module)
    table, groups = _pairing_counts(t), t.groups()
    agg_s = tuple(tuple(CycQ(3, [m1 - m0, m1 - m2], 9)
                        for m0, m1, m2 in (table[(s, tl)] for s in groups)) for tl in groups)
    agg_t = tuple(tuple(CycQ(3, W_POWERS[t.q[idx[0]]]).conjugate() if s == tl else CycQ.rational(0)
                        for s in groups) for tl, idx in groups.items())
    if not mat_eq(agg_t, _AGG_T):
        raise DualMismatchError("aggregated diagonal action differs from the display")
    if not mat_eq(agg_s, _AGG_S):
        raise DualMismatchError("aggregated S-action differs from the display")
    return agg_t, agg_s


# -- reflections over F_3

def _reflected(t: ModuleTable, a: int, xs: Iterable[int]) -> list[int]:
    """Indices of r_alpha(x) for the elements at indices xs; alpha at index a."""
    qa = t.q[a]
    if qa == 0:
        raise ReflectionError(f"{t.elements[a]} is isotropic; no reflection")
    pairing, multiples = t.b[a], (0, t.neg[a], a)  # x - c alpha, as -2 alpha = alpha
    # c = B(x, alpha) Q(alpha)^(-1): 1 and 2 are self-inverse mod 3
    return [t.add[x][multiples[pairing[x] * qa % 3]] for x in xs]


class Reflection(NamedTuple):
    """The F_3-linear reflection in a non-isotropic element alpha."""

    matrix: tuple[tuple[int, ...], ...]


def reflect(module: QuadraticModule, alpha: Element) -> Reflection:
    """r_alpha(x) = x - B(x, alpha) Q(alpha)^(-1) alpha over F_3."""
    t = module_table(module)
    images = _reflected(t, t.index[alpha], t.unit)
    return Reflection(tuple(zip(*(t.elements[i] for i in images))))


# -- orthogonal group

def _closure(gens: Iterable[bytes], n: int) -> tuple[list[bytes], list[int]]:
    """The group the permutation rows `gens` generate, and the positions of
    the gens that the earlier ones miss.  Dimino's enumeration: a missed g
    joins the generators, and the group H so far grows to the union of the
    cosets H c reached from H by c -> c then a generator."""
    group = [bytes(range(n))]
    members, used, pads = set(group), [], []
    for k, s in enumerate(gens):
        if s in members:
            continue
        used.append(k)
        pads.append(s.ljust(256, b"\0"))
        old, reps = list(group), [group[0]]
        for c in reps:  # reps grows as new cosets turn up
            for p in pads:
                d = c.translate(p)
                if d not in members:
                    reps.append(d)
                    coset = [h.translate(d.ljust(256, b"\0")) for h in old]
                    group.extend(coset)
                    members.update(coset)
    return group, used


class OrthogonalGroup(NamedTuple):
    """O(q) as permutations of the element indices.

    perm[k][i] is the index of the k-th map applied to elements[i].  The
    maps are sorted lexicographically by the indices of their images of the
    module generators g_j, and `position` maps those images to the row.
    """

    module: QuadraticModule
    perm: tuple[bytes, ...]
    position: dict  # generator images -> row
    generator_rows: tuple[int, ...]
    orbits: tuple[tuple[Element, ...], ...]

    @property
    def order(self) -> int:
        return len(self.perm)

    def locate(self, images: Iterable[int]) -> int:
        """Row of the map sending each g_j to images[j]; -1 if none does."""
        return self.position.get(tuple(images), -1)

    def reflection(self, alpha: Element) -> int:
        """Row of the reflection in alpha, -1 if it is not in the group."""
        t = module_table(self.module)
        return self.locate(_reflected(t, t.index[alpha], t.unit))


_GROUP_MEMO: dict = {}


def orthogonal_group(module: QuadraticModule) -> OrthogonalGroup:
    """O(q) as the closure of the reflections r_a, Q(a) != 0.

    Each r_a preserves Q, so the closure lies in O(q).  Conversely, if the
    pairing B(x, y) = Q(x + y) - Q(x) - Q(y) is nondegenerate, every g in
    O(q) is a product of reflections (Cartan-Dieudonne; 2 is invertible
    mod 3).  By induction on the dimension, the empty space being trivial:
    B(x, x) = 2 Q(x), so Q = 0 would make B = 0, and there is an x with
    Q(x) != 0.  Let y = g(x).  Q(x - y) + Q(x + y) = 4 Q(x) != 0, and
    B(y, x - y) = -Q(x - y), B(y, x + y) = Q(x + y), so r_(x-y)(y) = x if
    Q(x - y) != 0, else r_x r_(x+y)(y) = x.  That product h of reflections
    has hg(x) = x, so hg preserves x^perp, nondegenerate as Q(x) != 0, and
    is a product of reflections there; reflections in x^perp fix x.  A
    nonzero element pairing to 0 with every element raises ReflectionError.
    """
    if (group := _GROUP_MEMO.get(module)) is not None:
        return group
    t = module_table(module)
    n = len(t.elements)
    if bytes(n) in t.b[1:]:
        x = t.elements[t.b.index(bytes(n), 1)]
        raise ReflectionError(f"{x} pairs to 0 with every element: the form is degenerate")
    reflections = dict.fromkeys(bytes(_reflected(t, a, range(n))) for a in range(n) if t.q[a])
    members, _ = _closure(reflections, n)
    images = {row: tuple(map(row.__getitem__, t.unit)) for row in members}  # of the g_j
    perm = tuple(sorted(members, key=images.get))

    # orbit partition of the nonzero elements
    orbits, seen = [], {0}
    for i in range(n):
        if i not in seen:
            orbit = sorted(set(map(itemgetter(i), perm)))
            seen.update(orbit)
            orbits.append(tuple(t.elements[j] for j in orbit))

    # a small deterministic generating set: each row the earlier ones miss
    _, rows = _closure(perm, n)
    result = OrthogonalGroup(module, perm, {images[row]: k for k, row in enumerate(perm)},
                             tuple(rows), tuple(orbits))
    _GROUP_MEMO[module] = result
    return result


def central_negation(group: OrthogonalGroup) -> bool:
    """True iff -identity belongs to the group (it is automatically central)."""
    t = module_table(group.module)
    return group.locate(t.neg[u] for u in t.unit) >= 0


def involutive_reflections(group: OrthogonalGroup) -> tuple[Element, ...]:
    """Canonical non-isotropic classes whose reflection is an involution in the group."""
    t = module_table(group.module)
    identity = bytes(range(len(t.elements)))
    out = []
    for a, kind in enumerate(t.kind):
        if kind >= TYPE_LABELS.index("1") and a <= t.neg[a]:  # a is the lex-least of a, -a
            k = group.reflection(t.elements[a])
            if k >= 0 and group.perm[k].translate(group.perm[k].ljust(256, b"\0")) == identity:
                out.append(t.elements[a])
    return tuple(out)


# -- orthogonal bases

def canonical_sign(module: QuadraticModule, x: Element) -> Element:
    """Lexicographically least of {x, -x}."""
    return min(x, module.neg(x))


class OrthoBasis(NamedTuple):
    """An orthogonal basis alpha_0 (type 1), alpha_1..alpha_3 (type 2): canonical
    sign representatives, alpha_1..alpha_3 in lexicographic order."""

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
    long, short = ([x for x in t.of_type(label) if x <= t.neg[x]]  # x is the lex-least of x, -x
                   for label in ("1", "2"))
    bases = []
    for a0 in long:
        alpha0 = t.elements[a0]
        candidates = [x for x in short if not t.b[a0][x]]
        completions = [triple for triple in itertools.combinations(candidates, 3)
                       if not any(t.b[x][y] for x, y in itertools.combinations(triple, 2))]
        if len(completions) != 1:
            raise BasisError(
                f"alpha0 = {alpha0}: {len(completions)} orthogonal completions")
        rest = tuple(t.elements[x] for x in completions[0])
        # the four span: they are pairwise orthogonal with B(a, a) = 2 Q(a) != 0
        # (types 1 and 2), so pairing sum c_i alpha_i = 0 with alpha_j gives c_j = 0
        bases.append(OrthoBasis(alpha0, rest))
    return tuple(bases)


def isotropic_incidence(module: QuadraticModule, basis: OrthoBasis) -> dict[Element, tuple[int, ...]]:
    """For each nonzero isotropic x, the indices i with b(x, alpha_i) = 0; every
    one must pair to zero with at least one basis member."""
    t = module_table(module)
    rows = [t.b[t.index[a]] for a in basis.vectors]
    return {t.elements[x]: tuple(i for i, row in enumerate(rows) if not row[x])
            for x in t.of_type("0")}


def element_str(x: Element) -> str:
    return "".join(str(d) for d in x)
