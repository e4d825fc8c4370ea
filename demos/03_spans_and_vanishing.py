"""
Gadget spans, vanishing sets, and indistinguishability
======================================================

Fixing a signature set and a dangling profile, the gadgets one can wire
up span a linear space.  Pairing that space against the dual-profile
space with the closing bilinear form either has full rank (the set is
nonvanishing at that profile) or admits a gadget that every closing
gadget annihilates (a vanishing witness).  Two sets are Holant
indistinguishable when every closed grid agrees; below, that is exactly
invariance under a holographic transform, and indistinguishability of
nonvanishing sets forces covanishing profile by profile.
"""

import numpy as np

from holant import (
    HoloTransform,
    MixedTensor,
    SymBoolSignature,
    build_span,
    check_covanishing,
    check_indistinguishable,
    disequality_signature,
    equality_signature,
    gram_nondegenerate,
    recover_transform,
)

q = 2
rng = np.random.default_rng(23)

# The span of (1,1) gadgets over a single matrix is the algebra it
# generates: polynomials in the matrix, whose dimension is the degree
# of its minimal polynomial.  The identity (a bare wire) is always in.
f = MixedTensor.from_matrix(rng.standard_normal((q, q)))
span = build_span({"f": f}, profile=(1, 1), max_vertices=4)
print("(1,1) span dim over one generic matrix:", span.dim,
      "from", span.gadgets_enumerated, "gadgets")
assert span.dim == q
assert span.contains(equality_signature(q, 1, 1))

# Gram pairing at profile (1,1): generic sets are nonvanishing.
rep = gram_nondegenerate({"f": f}, profile=(1, 1), max_vertices=4)
print("generic set at (1,1):", rep.verdict, " rank", rep.rank, "of", rep.dim)

# A strictly upper triangular matrix only ever produces nilpotents, so
# its gadgets pair to zero against everything: a vanishing witness.
nil = MixedTensor.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
rep = gram_nondegenerate({"n": nil}, profile=(1, 1), max_vertices=4)
print("nilpotent set at (1,1):", rep.verdict)
print("witness pairing residual:", rep.max_pairing_residual)
assert rep.verdict == "vanishing_witness"

# Conjugated sets are indistinguishable: closed grids cannot tell
# f from T f T^{-1}.
t = HoloTransform(q, np.array([[1.0, 1.0], [0.0, 1.0]]))
gs = t.act_set({"f": f})
rep = check_indistinguishable({"f": f}, gs, {"f": "f"}, max_vertices=5, tol=1e-9)
print("conjugated pair:", rep.verdict, "over", rep.grids_checked,
      "grids, max difference", rep.max_difference)

# Scaling one signature is visible already in a one-vertex trace grid.
rep = check_indistinguishable(
    {"f": f}, {"f": f * 1.01}, {"f": "f"}, max_vertices=5, tol=1e-9
)
print("scaled pair:", rep.verdict, " witness grid:", rep.witness_grid)
print("  values:", rep.value_f, "vs", rep.value_g)

# Indistinguishable nonvanishing sets vanish together at every profile:
# a gadget of fs pairs to zero against all closures exactly when its
# partner gadget of gs does.
rep = check_covanishing({"f": f}, gs, {"f": "f"}, profile=(1, 1), max_vertices=4)
print("covanishing at (1,1):", rep.verdict,
      "after", rep.structures_checked, "structures")

# And covanishing at the closed profile is the same thing as
# indistinguishability, which is how the recovery below gets going.
rep = check_covanishing({"f": f}, gs, {"f": "f"}, profile=(0, 0), max_vertices=4)
print("covanishing at (0,0):", rep.verdict)

result = recover_transform({"f": f}, gs)
print("recovered a similarity:", result.verdict,
      " residual", result.residual)
assert result.similar

# The arity-4 counterexample: a binary disequality feeding
# f = [a, b, 1, 0, 0], against the same set with a = b = 0.  A closed
# grid reads f only at Hamming weight 2, so the sets are
# indistinguishable; yet f's low weights give a (0,4) combination that
# every closing gadget pairs to zero, and the zero combinations do not
# transfer.  Every signature here is symmetric, so the checkers walk one
# grid per class of port permutations, and bound 8 takes a fraction of
# a second.
neq = disequality_signature(q, 2, 0)
fs = {"neq": neq, "f": SymBoolSignature((1.0, 1.0, 1.0, 0, 0), 0, 4).to_tensor()}
gs = {"neq": neq, "f": SymBoolSignature((0, 0, 1.0, 0, 0), 0, 4).to_tensor()}
bij = {"neq": "neq", "f": "f"}
rep = check_indistinguishable(fs, gs, bij, max_vertices=8)
print("counterexample pair at bound 8:", rep.verdict, "over", rep.grids_checked,
      "classes of grids, max difference", rep.max_difference)
assert rep.verdict == "indistinguishable_at_bound" and rep.max_difference == 0.0
rep = gram_nondegenerate(fs, profile=(0, 4), max_vertices=8)
print("its (0,4) pairing:", rep.verdict, " rank", rep.rank, "of", rep.dim)
assert rep.verdict == "vanishing_witness"
rep = check_covanishing(fs, gs, bij, profile=(4, 0), max_vertices=8)
print("its (4,0) covanishing:", rep.verdict, "after", rep.structures_checked, "gadgets")
assert rep.verdict == "counterexample"
