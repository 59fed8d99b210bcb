"""The phase search's own solver against scipy's least_squares, the solver
it replaced.

scipy is not a dependency of qpc; without it installed this module is
skipped.  Both solvers run inside the same search, on the same seeds and
starting points, so any difference in what gets certified is the
solver's.
"""

import numpy as np
import pytest

from qpc import SearchConfig, gram, phases, realize_phases
from qpc import realizability
from qpc.realizability import REALIZABLE, REALIZE_TOL
from tests.conftest import family_with_support, uniform_phases

scipy_optimize = pytest.importorskip("scipy.optimize")

CFG = SearchConfig(restarts=8)


def scipy_solver(fun, x0, max_nfev):
    """scipy's least_squares as the search called it before: MINPACK's
    `lm` unless there are fewer residuals than unknowns, every tolerance
    at 1e-15."""
    residuals = fun(x0)[0]
    return scipy_optimize.least_squares(
        lambda x: fun(x)[0],
        x0,
        jac=lambda x: fun(x)[1],
        method="lm" if len(residuals) >= len(x0) else "trf",
        max_nfev=max_nfev,
        ftol=1e-15,
        xtol=1e-15,
        gtol=1e-15,
    )


def prescription_sets():
    """20 phase prescriptions per set: the phases of random families,
    which are all realizable, and complete supports with uniform random
    angles, which at n = 4 often are not."""
    for n in (5, 8, 12):
        rng = np.random.default_rng([n, 1])
        yield f"family phases, n={n}", [phases(family_with_support(rng, n)[1]) for _ in range(20)]
    for n in (3, 4):
        rng = np.random.default_rng([n, 2])
        yield f"uniform angles, n={n}", [uniform_phases(rng, n) for _ in range(20)]


SETS = dict(prescription_sets())


def certified(us, monkeypatch, solver):
    monkeypatch.setattr(realizability, "least_squares", solver)
    return [(u, res) for u, res in ((u, realize_phases(u, CFG)) for u in us) if res.status == REALIZABLE]


@pytest.mark.parametrize("name", SETS)
def test_certifies_at_least_what_scipy_certifies(name, monkeypatch):
    us = SETS[name]
    ours = certified(us, monkeypatch, realizability.least_squares)
    theirs = certified(us, monkeypatch, scipy_solver)
    assert len(ours) >= len(theirs)
    # and every certificate reproduces its phases
    for u, res in ours:
        assert res.residual <= REALIZE_TOL
        got = phases(gram(res.certificate))
        i, j = u.support.pairs
        assert np.max(np.abs(got.entries[i, j] - u.entries[i, j])) <= REALIZE_TOL
