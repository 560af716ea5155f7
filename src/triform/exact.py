"""Exact arithmetic in cyclotomic fields and small exact linear algebra.

A `CycQ` is an element of Q(zeta_n), stored as integer numerators over one
positive denominator on the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1) of
Q[x]/Phi_n(x) (Cohen, A Course in Computational Algebraic Number Theory,
4.2).  Values of different conductors mix by embedding both into
Q(zeta_lcm); inverses come from the Galois norm.  This module never touches
floats.

The matrix helpers at the bottom operate on tuples of tuples and, except
for `mat_from_rows` (which lifts to CycQ), keep the entry type: ints stay
ints, Fractions stay Fractions, CycQ stays CycQ.  One elimination serves
rank, nullspace, solve, inverse and determinant: fraction-free over Z, on
ints and on rows of Fractions scaled to ints, so that over Q only the values
it returns are Fractions, and with one inverse per pivot over Q(zeta_n)
(CycQ).  It rejects inexact entries such as floats with a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Sequence


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction data


class CyclotomicError(ValueError):
    """A cyclotomic polynomial failed to divide x^n - 1."""


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The k in 1..n prime to n: the Galois automorphisms sigma_k, zeta_n -> zeta_n^k."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return tuple(k for k in range(1, n + 1) if gcd(k, n) == 1)


def euler_phi(n: int) -> int:
    return len(_units(n))


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den is monic; exact integer division, ascending coefficients.
    num = list(num)
    d = len(den) - 1
    quot = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - d] = c
        for j, dj in enumerate(den):
            num[i - d + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, integer, monic."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_poly(d)))
            if rem != [0]:
                raise CyclotomicError(f"Phi_{d} does not divide x^{n}-1")
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # rows[e] = the nonzero (i, c) of x^e mod Phi_n over the power basis, 0 <= e < n.
    phi = euler_phi(n)
    # x^phi = -(c_0 + ... + c_{phi-1} x^{phi-1})
    fold = [-c for c in cyclotomic_poly(n)[:phi]]
    rows = [[int(i == e) for i in range(phi)] for e in range(phi)]
    for _ in range(phi, n):
        carry = rows[-1][-1]
        rows.append([s + carry * f for s, f in zip([0] + rows[-1][:-1], fold)])
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _fold(n: int, acc: list[int], den: int) -> "CycQ":
    """The value sum_e acc[e] zeta_n^e / den, for a list acc of n ints."""
    rows = _reduction_rows(n)
    num = acc[:euler_phi(n)]
    for e in range(len(num), n):
        if acc[e]:
            for i, c in rows[e]:
                num[i] += c * acc[e]
    return CycQ._make(n, num, den)


# ---------------------------------------------------------------------------
# CycQ


class CycQ:
    """An element of Q(zeta_n), exact: sum_i num[i] zeta_n^i / den.

    The ints num[i] and den > 0 have no common factor, so a value has one
    representation per conductor; `c` is a read-only view of num / den as
    Fractions.  Instances are immutable.  Arithmetic coerces ints and
    Fractions, and joins differing conductors through Q(zeta_lcm).  Not
    hashable: equal values can live at different conductors.
    """

    __slots__ = ("n", "num", "den")

    def __new__(cls, n: int, coeffs: Sequence[Fraction | int], den: int = 1):
        """The value sum_i coeffs[i] zeta_n^i / den, for den > 0."""
        if len(coeffs) != euler_phi(n) or den < 1:
            raise ValueError(f"need {euler_phi(n)} coefficients and den > 0 for conductor {n}")
        qs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs]
        common = lcm(*(x.denominator for x in qs))
        return CycQ._make(n, [x.numerator * (common // x.denominator) for x in qs],
                          int(den) * common)

    @staticmethod
    def _make(n: int, num: list[int], den: int) -> "CycQ":
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
        v = object.__new__(CycQ)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "num", tuple(num))
        object.__setattr__(v, "den", den)
        return v

    def __setattr__(self, *_):
        raise AttributeError("CycQ is immutable")

    @property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- constructors

    @staticmethod
    def rational(x: Fraction | int) -> "CycQ":
        return CycQ(1, [x])

    @staticmethod
    def from_exponents(n: int, pairs: Iterable[tuple[int, Fraction | int]]) -> "CycQ":
        """Value sum coeff * zeta_n^e from (e, coeff) pairs."""
        pairs = [(e, x) for e, x in pairs if x]
        den = lcm(*(x.denominator for _, x in pairs))
        acc = [0] * n
        for e, x in pairs:
            acc[e % n] += x.numerator * (den // x.denominator)
        return _fold(n, acc, den)

    # -- structure

    def _map(self, m: int, k: int) -> "CycQ":
        # zeta_n -> zeta_m^k: the embedding for m = k n, sigma_k for m = n
        acc = [0] * m
        for i, x in enumerate(self.num):
            acc[i * k % m] += x
        return _fold(m, acc, self.den)

    def embed(self, m: int) -> "CycQ":
        """The same value viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"no embedding: {self.n} does not divide {m}")
        return self._map(m, m // self.n)

    def conjugate(self) -> "CycQ":
        """Complex conjugation sigma_(-1), zeta -> zeta^(-1)."""
        return self._map(self.n, -1)

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Fraction(self.num[0], self.den)

    # -- arithmetic

    @staticmethod
    def _coerce(x) -> "CycQ":
        if isinstance(x, CycQ):
            return x
        if isinstance(x, (int, Fraction)):
            return CycQ.rational(x)
        return NotImplemented  # type: ignore[return-value]

    def _join(self, other: "CycQ") -> tuple["CycQ", "CycQ"]:
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.embed(m), other.embed(m)

    def __add__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._join(other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return CycQ._make(a.n, [x * fa + y * fb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return CycQ._make(self.n, [-x for x in self.num], self.den)

    def __sub__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._join(other)
        acc = [0] * a.n
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    acc[(i + j) % a.n] += x * y
        return _fold(a.n, acc, a.den * b.den)

    __rmul__ = __mul__

    def invert(self) -> "CycQ":
        """x^(-1) = prod_(k in (Z/n)*, k != 1) sigma_k(x) / N(x), N(x) rational."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in a cyclotomic field")
        prod = CycQ.rational(1).embed(self.n)
        for k in _units(self.n)[1:]:
            prod = prod * self._map(self.n, k)
        norm = self * prod
        scale = norm.den if norm.num[0] > 0 else -norm.den
        return CycQ._make(self.n, [x * scale for x in prod.num],
                          prod.den * abs(norm.num[0]))

    def __truediv__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return CycQ._coerce(other) * self.invert()

    def __eq__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._join(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"CycQ({self.n}, {[str(x) for x in self.c]})"

    def __str__(self):
        return format_cyc(self)


def root_of_unity(k: int, n: int) -> CycQ:
    """zeta_n^k as an exact value of conductor n."""
    if n < 1:
        raise ValueError("order must be positive")
    return CycQ.from_exponents(n, [(k, 1)])


OMEGA = root_of_unity(1, 3)
W_POWERS = ((1, 0), (0, 1), (-1, -1))  # w^0, w^1, w^2 = -1 - w over the basis 1, w


def format_cyc(v: CycQ) -> str:
    """Readable rendering: rationals bare, conductor 3 in terms of w."""
    if v.is_rational():
        return str(v.as_fraction())
    if v.n == 3:
        a, b = v.c
        parts = []
        if a != 0:
            parts.append(str(a))
        if b != 0:
            if b == 1:
                term = "w"
            elif b == -1:
                term = "-w"
            else:
                term = f"{b}*w"
            parts.append(("+ " + term if not term.startswith("-") else "- " + term[1:])
                         if parts else term)
        return " ".join(parts) if parts else "0"
    terms = [f"{c}*z{v.n}^{i}" for i, c in enumerate(v.c) if c != 0]
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# matrices over CycQ (tuples of tuples)

Matrix = tuple
Vector = tuple


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(CycQ._coerce(x) for x in row) for row in rows)


def mat_identity(k: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def dot(u: Vector, v: Vector):
    """sum_i u_i v_i, started from the first product, not from the int 0 (0 if empty).

    Over CycQ a start of 0 would lift that 0 into the field once per entry.
    """
    products = map(mul, u, v)
    first = next(products, 0)
    return sum(products, first)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scalar(s, a: Matrix) -> Matrix:
    return tuple(tuple(s * x for x in row) for row in a)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_trace(a: Matrix):
    return sum(a[i][i] for i in range(len(a)))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_pow(a: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative powers unsupported; invert explicitly")
    result, base = None, a
    while k:
        if k & 1:
            result = base if result is None else mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return mat_identity(len(a)) if result is None else result


def _echelon(a: Matrix) -> tuple[list[list], list[int], object, Callable, Callable]:
    """The reduced row echelon form of a, times a common pivot D.

    Over Q each row is scaled to ints by the lcm of its denominators, and the
    ints go through fraction-free Gauss-Jordan elimination (Bareiss, Math.
    Comp. 22, 1968): with p the new pivot and D the one before, every other
    row becomes (p row - f pivot_row) / D, an exact division, so every pivot
    ends equal to the last.  If any entry is a CycQ, each pivot row is first
    divided by its pivot, which makes p = D = 1.  Any other entry type, a
    float say, is a TypeError.

    Returns the rows, the pivot columns, D, x -> x / D into the field (a
    Fraction or a CycQ), and a thunk for the determinant of a square a of
    full rank.
    """
    cyclotomic = False
    for row in a:
        for x in row:
            if isinstance(x, CycQ):
                cyclotomic = True
            elif not isinstance(x, (int, Fraction)):
                raise TypeError(f"exact linear algebra got a {type(x).__name__} entry")
    if cyclotomic:
        rows = [[CycQ._coerce(x) for x in row] for row in a]
    else:
        scales = [lcm(*(x.denominator for x in row)) for row in a]
        rows = [[s // x.denominator * x.numerator for x in row] for s, row in zip(scales, a)]
        scale = prod(scales)
    pivots: list[int] = []
    det, d = 1, 1  # det: the sign of the swaps, times the pivots over Q(zeta_n)
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = -det
        p = rows[r][col]
        if cyclotomic:
            det = det * p
            inv = 1 / p
            rows[r] = [inv * x for x in rows[r]]
            p = 1
        pivot = rows[r]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and (f or p != d):  # a row with f = 0 still moves from D to p
                rows[i] = ([x - f * y for x, y in zip(row, pivot)] if p == d == 1 else
                           [(p * x - f * y) // d for x, y in zip(row, pivot)])
        d = p
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    if cyclotomic:
        return rows, pivots, d, CycQ._coerce, lambda: det
    return rows, pivots, d, lambda x: Fraction(x, d), lambda: Fraction(det * d, scale)


def mat_rank(a: Matrix) -> int:
    return len(_echelon(a)[1])


def mat_nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, deterministic (free columns ascending)."""
    rows, pivots, d, value, _ = _echelon(a)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [value(0)] * ncols
        v[f] = value(d)
        for r, p in enumerate(pivots):
            v[p] = value(-rows[r][f])
        basis.append(tuple(v))
    return basis


def mat_solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of A x = b, or None if inconsistent."""
    rows, pivots, _, value, _ = _echelon([list(row) + [bv] for row, bv in zip(a, b)])
    ncols = len(a[0]) if a else 0
    if ncols in pivots:  # a row reads 0 = 1
        return None
    x = [value(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = value(rows[r][ncols])
    return tuple(x)


def _square(a: Matrix) -> int:
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("matrix is not square")
    return k


def mat_inverse(a: Matrix) -> Matrix:
    k = _square(a)
    rows, pivots, _, value, _ = _echelon(
        [list(row) + list(e) for row, e in zip(a, mat_identity(k))])
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return tuple(tuple(map(value, row[k:])) for row in rows)


def mat_det(a: Matrix):
    """Determinant, a Fraction over Q and a CycQ over Q(zeta_n)."""
    k = _square(a)
    _, pivots, _, value, det = _echelon(a)
    return det() if len(pivots) == k else value(0)


# ---------------------------------------------------------------------------
# phase statistics of a finite-order matrix


def phase_multiplicities(a: Matrix, bound: int, proj: Matrix | None = None) -> dict[Fraction, int]:
    """Eigenphase histogram of a on the image of proj, an idempotent commuting
    with a (the whole space if None), by `trace_histogram` of the powers
    a^m proj up to the least order <= bound with a^order proj = proj.  Raises
    ValueError if there is no such order, or as `trace_histogram` does."""
    if bound < 1:
        raise ValueError("bound must be positive")
    target = mat_identity(len(a)) if proj is None else proj
    powers = [a if proj is None else mat_mul(a, proj)]  # powers[m - 1] = a^m proj
    while not mat_eq(powers[-1], target):
        if len(powers) == bound:
            raise ValueError(f"no power a^m with m <= {bound} is the identity")
        powers.append(mat_mul(powers[-1], a))
    return trace_histogram([mat_trace(p) for p in powers], mat_trace(target))


def trace_histogram(traces: Sequence, dim) -> dict[Fraction, int]:
    """{j/order: multiplicity} of the eigenvalues e^(2 pi i j / order) of an a
    with a^order = 1, from traces[m - 1] = tr(a^m), m = 1..order = len(traces):
    m_j = (1/order) * sum_m tr(a^m) zeta^(-jm), zeros omitted.  Raises
    ValueError unless the counts are nonnegative integers summing to dim."""
    order = len(traces)
    out: dict[Fraction, int] = {}
    total = 0
    for j in range(order):
        s = dot(traces, [root_of_unity(-j * m, order) for m in range(1, order + 1)])
        s = s * Fraction(1, order)
        if not s.is_rational():
            raise ValueError(f"non-rational multiplicity for phase {j}/{order}")
        val = s.as_fraction()
        if val.denominator != 1 or val < 0:
            raise ValueError(f"multiplicity {val} for phase {j}/{order} is not a count")
        if val:
            out[Fraction(j, order)] = int(val)
            total += int(val)
    if total != dim:
        raise ValueError(f"phase multiplicities sum to {total}, dimension is {dim}")
    return out


def alpha_invariant(mults: dict[Fraction, int]) -> Fraction:
    """Sum of phase * multiplicity over the eigenphase histogram."""
    return sum((phase * m for phase, m in mults.items()), Fraction(0))
