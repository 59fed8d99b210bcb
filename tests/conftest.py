import numpy as np
import pytest

from qpc import QubitState, StateFamily, gram, random_family

SQ2 = 2**-0.5


@pytest.fixture
def octant_family():
    """States pointing along z, x, and y on the Bloch sphere."""
    return StateFamily(
        (
            QubitState(1.0, 0.0),
            QubitState(SQ2, SQ2),
            QubitState(SQ2, 1j * SQ2),
        )
    )


def family_with_support(rng: np.random.Generator, n: int, min_overlap: float = 1e-6):
    """Random family with every pairwise overlap modulus above min_overlap."""
    while True:
        fam = random_family(n, rng)
        g = gram(fam)
        off = np.abs(g.entries[~np.eye(n, dtype=bool)])
        if off.size == 0 or off.min() > min_overlap:
            return fam, g


def family_with_orthogonal_pairs(rng: np.random.Generator, n: int, pairs: int) -> StateFamily:
    """Random family where states 2k and 2k+1 are orthogonal for k < pairs,
    shuffled so the pairs sit at random positions."""
    vecs = random_family(n, rng).vectors
    for k in range(pairs):
        a, b = vecs[2 * k]
        vecs[2 * k + 1] = (-b.conjugate(), a.conjugate())
    return StateFamily(tuple(QubitState(a, b) for a, b in vecs[rng.permutation(n)]))
