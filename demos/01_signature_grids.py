"""
Signature grids and Holant values
=================================

A grid places named signatures on vertices and joins their ports with
directed edges.  Closed grids evaluate to a single number; grids with
dangling ports are gadgets and evaluate to a signature of their own.
"""

import numpy as np

from holant import (
    MixedTensor,
    QuantumGadget,
    SignatureGrid,
    disequality_signature,
    equality_signature,
    gadget_signature,
    holant_eval_contracted,
    holant_polynomial,
)

q = 2

# A two-vertex cycle: each vertex is a (1,1) equality, wired head to tail.
# Each edge carries one domain value, both must agree at both vertices,
# so the value is the number of domain elements.
eq = equality_signature(q, 1, 1)
cycle = SignatureGrid(q, ("eq", "eq"), ((0, 1, 1, 1), (1, 1, 0, 1)))
value = holant_eval_contracted(cycle, {"eq": eq})
print("cycle of two equalities:", value)
assert abs(value - q) < 1e-12

# Disequality on the same cycle counts ordered pairs of distinct values.
neq = disequality_signature(q, 1, 1)
value = holant_eval_contracted(cycle, {"eq": neq})
print("cycle of two disequalities:", value)
assert abs(value - q * (q - 1)) < 1e-12

# A vertexless loop is a free cycle and contributes a bare factor q.
looped = SignatureGrid(q, ("eq", "eq"), ((0, 1, 1, 1), (1, 1, 0, 1)), loops=2)
print("same grid with two free loops:", holant_eval_contracted(looped, {"eq": eq}))

# The value is computed by contracting the tensor network pairwise.  The
# Holant polynomial sums the same network over every edge assignment,
# with the signature entries left symbolic; evaluating it agrees.
rng = np.random.default_rng(7)
f = MixedTensor.from_matrix(rng.standard_normal((q, q)))
h = MixedTensor(q, 2, 2, rng.standard_normal((q, q, q, q)))
grid = SignatureGrid(
    q,
    ("f", "h", "f"),
    ((0, 1, 1, 1), (1, 1, 2, 1), (2, 1, 1, 2), (1, 2, 0, 1)),
)
bindings = {"f": f, "h": h}
v_contract = holant_eval_contracted(grid, bindings)
v_poly = holant_polynomial(grid, {"f": (1, 1), "h": (2, 2)}).evaluate(bindings)
print("contracted:", v_contract)
print("polynomial:", v_poly)
assert abs(v_poly - v_contract) < 1e-9 * (1 + abs(v_contract))

# Leave ports dangling and the grid becomes a gadget.  Its signature
# lists the Holant value for every assignment of the dangling ports.
g = MixedTensor(q, 1, 2, rng.standard_normal((q, q, q)))
gadget = SignatureGrid(
    q,
    ("f", "g"),
    ((0, 1, 1, 1),),
    left_dangling=((1, 1),),
    right_dangling=((0, 1), (1, 2)),
)
sig = gadget_signature(gadget, {"f": f, "g": g})
print("gadget signature shape:", sig.shape, "entries:", sig.array.ravel().round(3))

# Formal combinations of gadgets with one shared dangling profile.
combo = QuantumGadget(((2.0, gadget), (-1.0, gadget)))
combined = combo.signature({"f": f, "g": g})
assert np.allclose(combined.array, sig.array)
print("2*gadget - gadget reproduces the gadget signature")

# The Holant value of a closed grid is a polynomial in the signature
# entries.  Expanding it keeps the entries symbolic.
poly = holant_polynomial(cycle, {"eq": (1, 1)})
print("cycle polynomial has", poly.num_monomials, "monomials:")
for mono, coeff in poly.sorted_items():
    factors = " * ".join(f"{s}{list(idx)}" for s, idx in mono)
    print(f"  {coeff:+g} * {factors}")
assert abs(poly.evaluate({"eq": eq}) - q) < 1e-12
