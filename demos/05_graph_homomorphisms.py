"""
Graph homomorphism counts as Holant values
==========================================

hom(X, G) becomes a closed grid: one equality signature per vertex of X
fanning out to its incident edges, and a copy of G's adjacency matrix
per edge.  Counting problems like matchings embed the same way.  On top
of the encoding sit experiments that hunt for small distinguishers
between graphs that share many invariants.
"""

import numpy as np

from holant import (
    SimpleGraph,
    bounded_degree_distinguisher,
    complete_graph,
    count_matchings,
    cycle_graph,
    enumerate_connected_graphs,
    hom_count,
    invertible_adjacency_experiment,
    path_graph,
)

# Proper 3-colorings of a 5-cycle: hom(C5, K3) = 2^5 - 2 = 30.
c5, k3 = cycle_graph(5), complete_graph(3)
print("hom(C5, K3) =", hom_count(c5, k3))
assert hom_count(c5, k3) == 30

# Proper k-colorings of an n-cycle have a closed form, the chromatic
# polynomial of C_n: (k-1)^n + (-1)^n (k-1).
for n, k in ((4, 2), (6, 3), (7, 4), (9, 5)):
    want = (k - 1) ** n + (-1) ** n * (k - 1)
    got = hom_count(cycle_graph(n), complete_graph(k))
    print(f"hom(C{n}, K{k}) = {got}  (closed form {want})")
    assert got == want

# Matchings of P4: three single edges plus the empty one, and one
# perfect matching (the two outer edges).
p4 = path_graph(4)
print("matchings(P4) =", count_matchings(p4))
print("perfect matchings(P4) =", count_matchings(p4, perfect=True))

# Connected graphs up to isomorphism, the 1, 1, 2, 6, 21 census.
for n in range(1, 6):
    reps = [g for g in enumerate_connected_graphs(n) if g.n == n]
    print(f"connected graphs on {n} vertices: {len(reps)}")

# The distinguisher search walks connected left graphs of bounded
# degree in census order and stops at the first disagreement.  K4 and
# C4 differ in edge count, so a single edge already separates them.
rep = bounded_degree_distinguisher(complete_graph(4), cycle_graph(4),
                                   d=3, max_left_vertices=3)
print("K4 vs C4:", rep.verdict,
      " distinguisher edges:", rep.distinguisher.edges,
      " counts", rep.count_f, "vs", rep.count_g)

# A cospectral pair with invertible adjacency matrices: equal hom
# counts from every cycle, still told apart by a 3-vertex path.
f = SimpleGraph(6, ((0, 5), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)))
g = SimpleGraph(6, ((0, 3), (1, 2), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
for name, gr in (("F", f), ("G", g)):
    spec = np.sort(np.linalg.eigvalsh(gr.adjacency())).round(4)
    print(f"{name}: spectrum {spec}")
reports = invertible_adjacency_experiment([(f, g)], bound=7)
rep = reports[0]
print("experiment:", rep.status, " distinguisher:", rep.distinguisher.edges,
      " counts", rep.count_f, "vs", rep.count_g)
