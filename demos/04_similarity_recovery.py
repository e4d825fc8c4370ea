"""
Recovering a similarity from matrix tuples
==========================================

Given two tuples of matrices that are simultaneously similar, the
recovery pipeline finds a concrete T with T F_k T^{-1} = G_k for all k.
It works from invariants only: the word closure of the generated
algebra, the trace form on it, and traces of generator words.  The same
invariants certify failure when no similarity exists.
"""

import numpy as np

from holant import (
    algebra_closure,
    is_11_nonvanishing,
    recover_transform,
    trace_words_equal,
)

q = 4
rng = np.random.default_rng(5)

fs = {
    "a": rng.standard_normal((q, q)),
    "b": rng.standard_normal((q, q)),
}

# The word closure: products of generators, reduced to a basis.
alg = algebra_closure(fs)
print("algebra dimension:", alg.dim, "(generic pairs generate everything)")
print("basis words:", [" ".join(w) if w else "1" for w in alg.words])

# The trace form tr(xy) on that algebra is nondegenerate exactly when
# the algebra is semisimple; then recovery can proceed.
nv = is_11_nonvanishing(alg)
print("trace form rank:", nv.rank, "of", nv.dim, "-> nonvanishing:", bool(nv))

# Conjugate by a fixed invertible matrix and recover it back.
s = rng.standard_normal((q, q)) + q * np.eye(q)
s_inv = np.linalg.inv(s)
gs = {k: s @ m @ s_inv for k, m in fs.items()}

# Traces of words are similarity invariants, so they must all agree.
# Checking them on a word basis of the algebra generated by the pairs
# (F_k, G_k) covers every word.
tw = trace_words_equal(fs, gs)
print("trace words:", tw.verdict, f"({tw.words_checked} words checked)")

result = recover_transform(fs, gs)
print("recovery:", result.verdict, " residual:", result.residual)
t = result.transform.matrix
for k in fs:
    assert np.allclose(t @ fs[k] @ np.linalg.inv(t), gs[k], atol=1e-8)
print("recovered T conjugates every generator (T differs from S by a",
      "scalar or a commuting factor, which is all the data determines)")

# Repeated eigenvalues are fine: T solves T F_k = G_k T for every k at
# once, so no eigenvalue of any single generator needs to be simple.
fs2 = {"d": np.diag([2.0, 2.0, 3.0, 3.0]), "x": rng.standard_normal((q, q))}
gs2 = {k: s @ m @ s_inv for k, m in fs2.items()}
result = recover_transform(fs2, gs2)
print("repeated spectrum:", result.verdict, " residual:", result.residual)

# Negative case one: a nilpotent pair has a degenerate trace form, and
# the radical element is returned as the obstruction witness.
nil = np.array([[0.0, 1.0], [0.0, 0.0]])
result = recover_transform({"n": nil}, {"n": nil.copy()})
print("nilpotent input:", result.verdict,
      " witness keys:", sorted(result.witness))

# Negative case two: different spectra surface as a trace mismatch on
# some short word, reported with both trace values.
result = recover_transform(
    {"d": np.diag([1.0, 2.0])}, {"d": np.diag([1.0, 3.0])}
)
print("spectra differ:", result.verdict,
      " word:", result.witness["word"],
      " traces:", result.witness["trace_f"], "vs", result.witness["trace_g"])
