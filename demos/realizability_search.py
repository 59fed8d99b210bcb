"""
When is comparison data realizable?
===================================

Given numbers that claim to be the pairwise comparisons of a qubit
family, do states with those comparisons exist?  For a full overlap
matrix the answer is a clean spectral test: Hermitian, unit diagonal,
positive semidefinite, rank at most two.  For bare phase data there is
no closed form; coherent prescriptions are realized exactly on a single
ray, anything else goes to a multi-start search over the amplitude rows.

Run with `python demos/realizability_search.py`.
"""

import cmath

import numpy as np

from qpc import (
    PhaseMatrix,
    SearchConfig,
    check_gram,
    factor_states,
    gram,
    phases,
    random_family,
    realize_phases,
)

# --- judging a gram matrix -------------------------------------------

# The identity on three states asks for three mutually orthogonal
# qubit rays.  A qubit has only two: the verdict fails on rank alone.
verdict = check_gram(np.eye(3, dtype=complex))
print("identity(3):", "realizable" if verdict.all_ok else "not realizable")
print("  failed:", ", ".join(verdict.failed_conditions()))
print("  eigenvalues:", [round(x, 6) for x in verdict.eigenvalues])

# A matrix that does come from states passes, and the factorization
# recovers a family reproducing it to machine precision.
g = gram(random_family(6, seed=42))
verdict = check_gram(g)
print("\nrandom family gram:", "realizable" if verdict.all_ok else "not realizable")
recovered = factor_states(g)
err = np.max(np.abs(gram(recovered).entries - g.entries))
print(f"  factorization round trip error: {err:.3e}")

# --- realizing phase prescriptions -----------------------------------

# Phases drawn from a potential, u_ij = exp(i (a_i - a_j)), multiply to
# one around every loop.  Such data never needs a second dimension: it
# is realized by rephasing copies of a single state.
angles = [0.0, 0.7, -1.9, 2.4]
coherent = PhaseMatrix.from_edges(
    4,
    {
        (i, j): cmath.exp(1j * (angles[i] - angles[j]))
        for i in range(4)
        for j in range(i + 1, 4)
    },
)
res = realize_phases(coherent)
print(f"\ncoherent prescription: {res.status}, residual {res.residual:.3e}")
print(f"  {res.diagnostics}")

# A chordless four-cycle has no triangles to test, so it is vacuously
# coherent, but a loop product of i rules out any potential.  The
# search has to find a genuinely two-dimensional family.
square = PhaseMatrix.from_edges(
    4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1j}
)
res = realize_phases(square)
print(f"\nholonomy square: {res.status}, residual {res.residual:.3e}")
print(f"  {res.diagnostics}")

# Phases read off an actual family are realizable by construction; the
# search should find them again (up to gauge) from scratch.
witness = random_family(5, seed=7)
u = phases(gram(witness))
res = realize_phases(u, SearchConfig(seed=1))
print(f"\nwitnessed phases, 5 states: {res.status}, residual {res.residual:.3e}")

# An exhausted search is reported as inconclusive, never as a proof of
# impossibility; local descent cannot certify a negative.
res = realize_phases(u, SearchConfig(restarts=2, realize_tol=1e-30))
print(f"\nimpossible tolerance: {res.status}")
print(f"  {res.diagnostics}")
