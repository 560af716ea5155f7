"""Exact arithmetic in cyclotomic fields and small exact linear algebra.

A `CycQ` is an element of Q(zeta_n), stored as its coefficient vector over
the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1) of Q[x]/Phi_n(x).  Values
of different conductors mix by embedding both into Q(zeta_lcm).  Everything
is built on `fractions.Fraction`; this module never touches floats.

The matrix helpers at the bottom operate on tuples of tuples and, except
for `mat_from_rows` (which lifts to CycQ), keep the entry type: ints stay
ints, Fractions stay Fractions, CycQ stays CycQ.  One
reduced row echelon serves rank, nullspace, solve, inverse and determinant
over Q (ints and Fractions) and over Q(zeta_n) (CycQ); it rejects inexact
entries such as floats with a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Sequence


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction data


class CyclotomicError(ValueError):
    """A cyclotomic polynomial failed to divide x^n - 1."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # rows[e] = coefficients of x^e mod Phi_n over the power basis, 0 <= e < n.
    phi = euler_phi(n)
    top = cyclotomic_poly(n)
    # x^phi = -(c_0 + ... + c_{phi-1} x^{phi-1})
    fold = tuple(-c for c in top[:phi])
    rows: list[tuple[int, ...]] = []
    for e in range(phi):
        rows.append(tuple(1 if i == e else 0 for i in range(phi)))
    for _ in range(phi, n):
        prev = rows[-1]
        carry = prev[phi - 1]
        shifted = [0] + list(prev[:-1])
        if carry:
            shifted = [s + carry * f for s, f in zip(shifted, fold)]
        rows.append(tuple(shifted))
    return tuple(rows)


# ---------------------------------------------------------------------------
# CycQ


class CycQ:
    """An element of Q(zeta_n), exact.

    Instances are immutable.  Arithmetic coerces ints and Fractions, and
    joins differing conductors through Q(zeta_lcm).  Not hashable: equal
    values can live at different conductors.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs: Sequence[Fraction | int]):
        phi = euler_phi(n)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", tuple(Fraction(x) for x in coeffs))

    def __setattr__(self, *_):
        raise AttributeError("CycQ is immutable")

    # -- constructors

    @staticmethod
    def rational(x: Fraction | int) -> "CycQ":
        return CycQ(1, [Fraction(x)])

    @staticmethod
    def from_exponents(n: int, pairs: Iterable[tuple[int, Fraction | int]]) -> "CycQ":
        """Value sum coeff * zeta_n^e from (e, coeff) pairs."""
        rows = _reduction_rows(n)
        phi = euler_phi(n)
        acc = [Fraction(0)] * phi
        for e, coeff in pairs:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            row = rows[e % n]
            for i in range(phi):
                if row[i]:
                    acc[i] += coeff * row[i]
        return CycQ(n, acc)

    # -- structure

    def embed(self, m: int) -> "CycQ":
        """The same value viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"no embedding: {self.n} does not divide {m}")
        step = m // self.n
        return CycQ.from_exponents(m, ((i * step, c) for i, c in enumerate(self.c)))

    def conjugate(self) -> "CycQ":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return CycQ.from_exponents(self.n, ((-i, c) for i, c in enumerate(self.c)))

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return any(self.c)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return self.c[0]

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
        return CycQ(a.n, [x + y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __neg__(self):
        return CycQ(self.n, [-x for x in self.c])

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
        pairs: dict[int, Fraction] = {}
        for i, x in enumerate(a.c):
            if x == 0:
                continue
            for j, y in enumerate(b.c):
                if y == 0:
                    continue
                e = (i + j) % a.n
                pairs[e] = pairs.get(e, Fraction(0)) + x * y
        return CycQ.from_exponents(a.n, pairs.items())

    __rmul__ = __mul__

    def invert(self) -> "CycQ":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in a cyclotomic field")
        # extended Euclid for self (as a polynomial) against Phi_n over Q
        phi_poly = [Fraction(c) for c in cyclotomic_poly(self.n)]
        r0, r1 = phi_poly, list(self.c)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while len(r1) > 1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, r = _frac_poly_divmod(r0, r1)
            s = _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            r0, r1, s0, s1 = r1, r, s1, s
        const = r1[0]
        inv_coeffs = [x / const for x in s1]
        phi = euler_phi(self.n)
        inv_coeffs += [Fraction(0)] * (phi - len(inv_coeffs))
        result = CycQ.from_exponents(self.n, enumerate(inv_coeffs[:phi]))
        return result

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
        return a.c == b.c

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"CycQ({self.n}, {[str(x) for x in self.c]})"

    def __str__(self):
        return format_cyc(self)

    # -- serialization

    def to_json(self) -> dict:
        return {"conductor": self.n, "coeffs": [str(x) for x in self.c]}

    @staticmethod
    def from_json(data: dict) -> "CycQ":
        return CycQ(int(data["conductor"]), [Fraction(s) for s in data["coeffs"]])


def root_of_unity(k: int, n: int) -> CycQ:
    """zeta_n^k as an exact value of conductor n."""
    if n < 1:
        raise ValueError("order must be positive")
    return CycQ.from_exponents(n, [(k, 1)])


OMEGA = root_of_unity(1, 3)


def format_cyc(v: CycQ) -> str:
    """Readable rendering: rationals bare, conductor 3 in terms of w."""
    if v.is_rational():
        return str(v.c[0])
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


# fraction-coefficient polynomial helpers (ascending lists)


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    d = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - d, 1)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = c / lead
        quot[i - d] = q
        for j, dj in enumerate(den):
            num[i - d + j] -= q * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# matrices over CycQ (tuples of tuples)

Matrix = tuple
Vector = tuple


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(CycQ._coerce(x) for x in row) for row in rows)


def mat_identity(k: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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
    result = mat_identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def _field_rows(a: Matrix) -> tuple[list[list], Callable]:
    """Mutable rows of a over one field, and the lift of a rational into it.

    The field is Q(zeta_n) if any entry is a CycQ and Q otherwise, with ints
    turned into Fractions; any other entry type, a float say, is a TypeError.
    """
    cyclotomic = False
    for row in a:
        for x in row:
            if isinstance(x, CycQ):
                cyclotomic = True
            elif not isinstance(x, (int, Fraction)):
                raise TypeError(f"exact linear algebra got a {type(x).__name__} entry")
    lift = CycQ._coerce if cyclotomic else Fraction
    return [[lift(x) for x in row] for row in a], lift


def _echelon(rows: list[list]) -> tuple[list[int], object]:
    """Bring rows to reduced row echelon form in place.

    Returns the pivot columns and the signed product of the pivots, which
    is the determinant of a square matrix of full rank.
    """
    pivots: list[int] = []
    det = 1
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = -det
        det = det * rows[r][col]
        inv = 1 / rows[r][col]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots, det


def mat_rank(a: Matrix) -> int:
    rows, _ = _field_rows(a)
    return len(_echelon(rows)[0])


def mat_nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, deterministic (free columns ascending)."""
    rows, lift = _field_rows(a)
    pivots, _ = _echelon(rows)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [lift(0)] * ncols
        v[f] = lift(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def mat_solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of A x = b, or None if inconsistent."""
    rows, lift = _field_rows([list(row) + [bv] for row, bv in zip(a, b)])
    pivots, _ = _echelon(rows)
    ncols = len(a[0]) if a else 0
    if ncols in pivots:  # a row reads 0 = 1
        return None
    x = [lift(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return tuple(x)


def _square(a: Matrix) -> int:
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("matrix is not square")
    return k


def mat_inverse(a: Matrix) -> Matrix:
    k = _square(a)
    rows, _ = _field_rows([list(row) + list(e) for row, e in zip(a, mat_identity(k))])
    if _echelon(rows)[0] != list(range(k)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[k:]) for row in rows)


def mat_det(a: Matrix):
    """Determinant, a Fraction over Q and a CycQ over Q(zeta_n)."""
    k = _square(a)
    rows, lift = _field_rows(a)
    pivots, det = _echelon(rows)
    return lift(det if len(pivots) == k else 0)


# ---------------------------------------------------------------------------
# phase statistics of a finite-order matrix


def phase_multiplicities(a: Matrix, order: int) -> dict[Fraction, int]:
    """Eigenphase histogram of a matrix with a^order = 1.

    Returns {j/order: multiplicity} for the eigenvalues e^(2 pi i j / order),
    omitting zero multiplicities.  Derived from power traces alone:
    m_j = (1/order) * sum_m trace(a^m) zeta^(-jm).  Raises ValueError if
    a^order is not the identity or the counts fail to be nonnegative
    integers summing to the dimension.
    """
    if order < 1:
        raise ValueError("order must be positive")
    dim = len(a)
    powers = [mat_identity(dim)]
    for _ in range(order - 1):
        powers.append(mat_mul(powers[-1], a))
    if not mat_eq(mat_mul(powers[-1], a), mat_identity(dim)):
        raise ValueError(f"matrix does not satisfy a^{order} = 1")
    traces = [mat_trace(p) for p in powers]
    out: dict[Fraction, int] = {}
    total = 0
    for j in range(order):
        s = CycQ.rational(0)
        for m in range(order):
            s = s + traces[m] * root_of_unity(-j * m, order)
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
