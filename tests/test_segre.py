"""The Segre cubic's S_6 in the fifteen sign vectors.

The paper's map starts at the Segre cubic, whose automorphism group is S_6
and which has 10 nodes (Hunt, *The Geometry of some special Arithmetic
Quotients*, LNM 1637, 1996).  The sign vectors carry that structure: their
Gram matrix is 8 times that of the 15 positive roots of A_5 (the roots
e_i - e_j name the 15 duads {i, j} of six points), O(q) acts on their lines
through S_6, and the 10 isotropic lines match the 10 splittings of the six
points into two triples.  Everything here is read from `special_vector`,
`orthogonal_bases`, `orthogonal_group` and `isotropic_incidence`.
"""

import itertools

from triform.fqm import (
    canonical_sign,
    isotropic_incidence,
    module_table,
    orthogonal_bases,
    orthogonal_group,
    paper_module,
)
from triform.weil import special_vector, special_vector_rank

M = paper_module()
BASES = orthogonal_bases(M)
SVS = tuple(special_vector(M, b) for b in BASES)  # what special_vectors builds
VECS = [sv.vec for sv in SVS]


def gram(vectors):
    return [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]


def reflection_closed(vectors) -> bool:
    """±v closed under u -> u - (<u, v> / 8) v, the reflection in v when <v, v> = 16."""
    roots = {tuple(s * x for x in v) for v in vectors for s in (1, -1)}
    for u, v in itertools.product(roots, repeat=2):
        ip = sum(a * b for a, b in zip(u, v))
        if ip % 8 or tuple(a - ip // 8 * b for a, b in zip(u, v)) not in roots:
            return False
    return True


def adjacency():
    """i ~ j when the sign vectors i and j are not orthogonal."""
    g = gram(VECS)
    return [{j for j in range(15) if j != i and g[i][j]} for i in range(15)]


def six_points():
    """The 5-cliques of the adjacency graph, and for each vector the two it lies in."""
    adj = adjacency()
    cliques = [set(c) for c in itertools.combinations(range(15), 5)
               if all(j in adj[i] for i, j in itertools.combinations(c, 2))]
    return cliques, [frozenset(k for k, c in enumerate(cliques) if i in c) for i in range(15)]


def test_the_gram_matrix_has_sixteen_on_the_diagonal_and_eight_eights_per_row():
    g = gram(VECS)
    assert all(g[i][i] == 16 for i in range(15))
    for i, row in enumerate(g):
        others = row[:i] + row[i + 1:]
        assert sorted(map(abs, others)) == [0] * 6 + [8] * 8


def test_the_thirty_roots_are_closed_under_their_reflections():
    assert len({tuple(s * x for x in v) for v in VECS for s in (1, -1)}) == 30
    assert reflection_closed(VECS)


def test_one_flipped_entry_breaks_the_closure():
    flipped = list(VECS)
    k = next(i for i, x in enumerate(flipped[0]) if x)
    flipped[0] = flipped[0][:k] + (-flipped[0][k],) + flipped[0][k + 1:]
    assert not reflection_closed(flipped)


def test_the_graph_is_t6_so_the_root_system_is_a5_of_rank_5():
    adj = adjacency()
    assert all(len(n) == 8 for n in adj)
    for i, j in itertools.combinations(range(15), 2):
        assert len(adj[i] & adj[j]) == 4  # (15, 8, 4, 4): lambda = mu = 4
    seen, todo = {0}, [0]  # connected, so the root system is irreducible
    while todo:
        for j in adj[todo.pop()] - seen:
            seen.add(j)
            todo.append(j)
    assert seen == set(range(15))
    # irreducible and simply laced with 30 roots: A_n has n (n + 1) roots,
    # D_n has 2 n (n - 1) (never 30), E_6, E_7, E_8 have 72, 126, 240
    rank = next(n for n in range(1, 30) if n * (n + 1) == 30)
    assert rank == 5 == special_vector_rank(SVS)


def test_six_five_cliques_name_the_six_points():
    cliques, duads = six_points()
    assert len(cliques) == 6
    assert all(len(d) == 2 for d in duads)
    assert len(set(duads)) == 15  # the 15 duads of six points, each once
    adj = adjacency()
    for i, j in itertools.combinations(range(15), 2):  # orthogonal iff disjoint duads
        assert (j in adj[i]) == bool(duads[i] & duads[j])


def test_o_q_acts_on_the_fifteen_lines_through_s6():
    group, t = orthogonal_group(M), module_table(M)
    lines = {frozenset((v, tuple(-x for x in v))): k for k, v in enumerate(VECS)}
    images = []
    for row in (group.perm[k] for k in group.generator_rows):
        # g v is the vector w with w[g(x)] = v[x]
        moved = [[0] * len(t.elements) for _ in VECS]
        for w, v in zip(moved, VECS):
            for x, c in enumerate(v):
                w[row[x]] = c
        images.append(tuple(lines[frozenset((tuple(w), tuple(-x for x in w)))] for w in moved))
    closure, todo = {tuple(range(15))}, [tuple(range(15))]
    while todo:
        p = todo.pop()
        for g in images:
            q = tuple(g[i] for i in p)
            if q not in closure:
                closure.add(q)
                todo.append(q)
    assert group.order == 1440 and len(closure) == 720  # O(q) / {±1} = S_6


def test_the_ten_isotropic_lines_match_the_ten_splittings():
    _, duads = six_points()
    incidence = [isotropic_incidence(M, b) for b in BASES]
    t = module_table(M)
    splittings = set()
    for x in {canonical_sign(M, t.elements[i]) for i in t.of_type("0")}:
        counts = [len(inc[x]) for inc in incidence]
        assert sorted(counts) == [1] * 6 + [2] * 9
        single = [duads[k] for k, c in enumerate(counts) if c == 1]
        # the six duads are the edges of two disjoint triangles: a 3|3 splitting
        points = [p for p in range(6) if sum(p in d for d in single) == 2]
        assert len(points) == 6
        half = {0} | {p for d in single if 0 in d for p in d}
        assert len(half) == 3
        other = frozenset(range(6)) - half
        assert set(single) == {frozenset(d) for h in (half, other)
                               for d in itertools.combinations(h, 2)}
        splittings.add(frozenset((frozenset(half), other)))
    assert len(splittings) == 10
