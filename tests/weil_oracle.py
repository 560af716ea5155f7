"""The former numpy route of the Weil layer, kept as a test oracle.

A matrix is a triple (A, B, den) of int64 arrays and an int, read as
(A + B w) / den.  Every Z[w] product goes through _zw_matmul: four float64
matmuls, exact because every entry and partial sum is an integer of
absolute value at most 3 k m1 m2 (k the inner dimension, m1 and m2 the
largest numerators of the factors), which it checks against 2^53 first.

`numerators` reads an OmegaMat of triform.weil into the same arrays; it is
the one place where the tests read single entries of an OmegaMat.
`omega_mat` builds an OmegaMat from such arrays or from lists of int rows.
"""

from fractions import Fraction
from itertools import chain

import numpy as np

from triform.exact import W_POWERS, CycQ
from triform.fqm import module_table, orthogonal_group
from triform.weil import CHARACTER_TABLE, CLASS_ORDER, OmegaMat, _bound, _pack, build_sl2f3

_FLOAT_EXACT_LIMIT = 1 << 53


def numerators(m) -> tuple[np.ndarray, np.ndarray]:
    """The numerators A and B of an OmegaMat m, over m.den, as int64 arrays."""
    a, b = m.rows()
    return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


def omega_mat(a, b, den: int = 1) -> OmegaMat:
    """(A + B w) / den from the int rows of A and B, which must have one shape."""
    a, b = [list(map(int, row)) for row in a], [list(map(int, row)) for row in b]
    cols = len(a[0]) if a else 0
    if len(a) != len(b) or any(len(row) != cols for row in chain(a, b)):
        raise ValueError("component shapes differ")
    height = _bound(max(map(abs, chain(*a, *b)), default=0))
    return OmegaMat(tuple(map(_pack, a)), tuple(map(_pack, b)), den, height, cols)


def _max_abs(x) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _zw_matmul(a1, b1, a2, b2):
    """(A1 + B1 w)(A2 + B2 w) as a float64 (1-part, w-part) pair of exact
    integers; OverflowError unless 3 k m1 m2 < 2^53."""
    m1, m2 = max(_max_abs(a1), _max_abs(b1)), max(_max_abs(a2), _max_abs(b2))
    if 3 * a1.shape[-1] * m1 * m2 >= _FLOAT_EXACT_LIMIT:
        raise OverflowError(f"numerators up to {m1} and {m2} are too large for "
                            "exact float64 products")
    a1, b1, a2, b2 = (np.asarray(x, dtype=np.float64) for x in (a1, b1, a2, b2))
    b1b2 = b1 @ b2
    return a1 @ a2 - b1b2, a1 @ b2 + b1 @ a2 - b1b2


def lowest(a, b, den: int):
    """(A, B, den) in lowest terms with den > 0."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if den < 0:
        a, b, den = -a, -b, -den
    g = int(np.gcd.reduce(np.concatenate([np.abs(a).ravel(), np.abs(b).ravel(), [den]])))
    return a // g, b // g, den // g


def same(m, triple) -> bool:
    """An OmegaMat equals an oracle triple."""
    a, b = numerators(m)
    return m.den == triple[2] and np.array_equal(a, triple[0]) and np.array_equal(b, triple[1])


def matmul(x, y):
    a, b = _zw_matmul(x[0], x[1], y[0], y[1])
    return lowest(a.astype(np.int64), b.astype(np.int64), x[2] * y[2])


def generators(module):
    """rho(S) and rho(T), as the frombuffer route built them from the B and Q tables."""
    table = module_table(module)
    n = len(table.elements)
    q = np.frombuffer(table.q, dtype=np.uint8)
    b = np.frombuffer(b"".join(table.b), dtype=np.uint8).reshape(n, n).astype(np.intp)
    one, w = np.array(W_POWERS).T
    k = (-b) % 3
    return lowest(-one[k], -w[k], 9), lowest(np.diag(one[q]), np.diag(w[q]), 1)


def word_products(module) -> dict:
    """rho(g) for each g of SL(2, F_3): the product of the letters of its word."""
    s, t = generators(module)
    n = module.order()
    rho = {}
    for g in build_sl2f3().elements:
        m = lowest(np.eye(n), np.zeros((n, n)), 1)
        for letter in g.word:
            m = matmul(m, s if letter == "S" else t)
        rho[g.mat] = m
    return rho


def relations_hold(module) -> bool:
    """rho(S)^2 is the negation permutation and (rho(S) rho(T))^3 = rho(S)^2."""
    s, t = generators(module)
    n = module.order()
    neg = np.zeros((n, n), dtype=np.int64)
    neg[np.frombuffer(module_table(module).neg, dtype=np.uint8), np.arange(n)] = 1
    s2, st = matmul(s, s), matmul(s, t)
    st3 = matmul(matmul(st, st), st)
    return all(np.array_equal(x, y) for x, y in zip(s2, (neg, 0 * neg, 1))) and all(
        np.array_equal(x, y) for x, y in zip(st3, s2))


def trace(m) -> CycQ:
    return CycQ(3, [int(np.trace(m[0])), int(np.trace(m[1]))], m[2])


def projector(rho: dict, char_index: int):
    """(dim chi / 24) sum conj(chi(g)) rho(g), as one _zw_matmul of the 1 x 24
    row of dim chi conj(chi(g)) with the 24 den-9 numerator matrices."""
    group = build_sl2f3()
    chi = CHARACTER_TABLE[char_index]
    x, y = np.array(chi).T
    dim_chi = chi[0][0]
    cls = [CLASS_ORDER.index(group.class_of[g.mat]) for g in group.elements]
    ca, cb = dim_chi * (x - y)[cls], -dim_chi * y[cls]
    mats = [rho[g.mat] for g in group.elements]
    n = len(mats[0][0])
    num_a = np.stack([m[0] * (9 // m[2]) for m in mats]).reshape(len(mats), n * n)
    num_b = np.stack([m[1] * (9 // m[2]) for m in mats]).reshape(len(mats), n * n)
    a, b = _zw_matmul(ca[None], cb[None], num_a, num_b)
    return lowest(a.reshape(n, n).astype(np.int64), b.reshape(n, n).astype(np.int64),
                  9 * len(mats))


def o_q_norm(module, p) -> Fraction:
    """(1/|O|) sum_g |trace(P_g P)|^2 with trace(P_g P) = sum_i P[g^-1 i, i]."""
    group = orthogonal_group(module)
    perm = np.frombuffer(b"".join(group.perm), dtype=np.uint8).reshape(group.order, -1)
    inverse = np.argsort(perm, axis=1)
    idx = np.arange(perm.shape[1])
    xs = p[0][inverse, idx].sum(axis=1).tolist()
    ys = p[1][inverse, idx].sum(axis=1).tolist()
    total = sum(x * x - x * y + y * y for x, y in zip(xs, ys))
    return Fraction(total, p[2] * p[2] * group.order)
