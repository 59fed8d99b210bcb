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


# The grid of slack_gram matrices: c * q0 q0* added, d * I taken off.
SLACK_C = np.linspace(3e-10, 6e-10, 13)
SLACK_D = np.linspace(1e-10, 3e-10, 11)


def slack_gram(seed: int, c: float, d: float) -> np.ndarray:
    """g + c q0 q0* - d I for the Gram matrix g of a seeded 3-state family
    and q0 its null eigenvector: rank 3, with the third eigenvalue and the
    diagonal both off by amounts near the verdict's 1e-10 thresholds."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    v = z / np.linalg.norm(z, axis=1, keepdims=True)
    m = v @ v.conj().T
    g = (m + m.conj().T) / 2
    q0 = np.linalg.eigh(g)[1][:, 0]
    return g + c * np.outer(q0, q0.conj()) - d * np.eye(3)
