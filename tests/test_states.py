import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc import (
    BlochVector,
    QubitState,
    StateFamily,
    from_bloch,
    inner,
    projector,
    random_family,
    random_state,
    rays_equal,
    to_bloch,
)
from qpc.states import SIGMA_X, SIGMA_Y, SIGMA_Z

SQ2 = 2**-0.5


class TestQubitState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            QubitState(1.0, 1.0)

    def test_accepts_roundoff(self):
        QubitState(SQ2, SQ2)

    def test_normalized_constructor(self):
        s = QubitState.normalized(3.0, 4.0j)
        assert abs(s.c0 - 0.6) < 1e-15
        assert abs(s.c1 - 0.8j) < 1e-15

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            QubitState.normalized(0.0, 0.0)

    def test_inner_convention(self):
        # conjugate-linear in the first argument
        a = QubitState(SQ2, SQ2)
        b = QubitState(SQ2, 1j * SQ2)
        assert inner(a, b) == pytest.approx(0.5 + 0.5j)
        assert inner(b, a) == pytest.approx(0.5 - 0.5j)
        c = QubitState(1.0, 0.0)
        assert inner(c, a) == pytest.approx(SQ2)


class TestStateFamily:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            StateFamily(())

    def test_labels_must_match_length(self):
        with pytest.raises(ValueError, match="labels"):
            StateFamily((QubitState(1, 0),), ("a", "b"))

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            StateFamily((QubitState(1, 0), QubitState(0, 1)), ("a", "a"))


class TestToBloch:
    def test_basis_states(self):
        assert to_bloch(QubitState(1, 0)).vector == pytest.approx([0, 0, 1])
        assert to_bloch(QubitState(0, 1)).vector == pytest.approx([0, 0, -1])

    def test_plus_state(self):
        np.testing.assert_allclose(
            to_bloch(QubitState(SQ2, SQ2)).vector, [1, 0, 0], atol=1e-15
        )

    def test_circular_state_against_pauli_trace_oracle(self):
        # oracle: n_a = tr(rho sigma_a) with rho assembled entry by entry
        s = QubitState(SQ2, 1j * SQ2)
        v = np.array([s.c0, s.c1])
        rho = np.outer(v, v.conj())
        oracle = np.array(
            [
                np.trace(rho @ SIGMA_X).real,
                np.trace(rho @ SIGMA_Y).real,
                np.trace(rho @ SIGMA_Z).real,
            ]
        )
        np.testing.assert_allclose(oracle, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(to_bloch(s).vector, oracle, atol=1e-12)

    def test_traces_match_formula_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_state(rng)
            rho = projector(s)
            oracle = [
                float(np.trace(rho @ sig).real) for sig in (SIGMA_X, SIGMA_Y, SIGMA_Z)
            ]
            np.testing.assert_allclose(to_bloch(s).vector, oracle, atol=1e-12)

    @given(
        theta=st.floats(0.0, 2.0 * math.pi),
        alpha=st.floats(0.0, math.pi),
        beta=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_rephasing_invariance(self, theta, alpha, beta):
        # exact in real arithmetic; a few ulp of product roundoff in floats
        s = QubitState(math.cos(alpha / 2), cmath.exp(1j * beta) * math.sin(alpha / 2))
        n1 = to_bloch(s).vector
        n2 = to_bloch(s.rephased(theta)).vector
        np.testing.assert_allclose(n1, n2, atol=1e-15)

    def test_rephasing_invariance_exact_for_quarter_turns(self):
        # quarter-turn multipliers built literally so the products stay IEEE-exact
        s = QubitState(0.6, 0.8j)
        base = to_bloch(s).vector.tolist()
        for p in (1.0, 1j, -1.0, -1j):
            t = QubitState(p * s.c0, p * s.c1)
            assert to_bloch(t).vector.tolist() == base


class TestFromBloch:
    def test_poles_are_exact(self):
        north = from_bloch((0.0, 0.0, 1.0))
        assert (north.c0, north.c1) == (1.0 + 0j, 0.0 + 0j)
        south = from_bloch((0.0, 0.0, -1.0))
        assert (south.c0, south.c1) == (0.0 + 0j, 1.0 + 0j)

    def test_equator(self):
        s = from_bloch((1.0, 0.0, 0.0))
        np.testing.assert_allclose([s.c0, s.c1], [SQ2, SQ2], atol=1e-15)

    def test_gauge_first_amplitude_real_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = to_bloch(random_state(rng))
            s = from_bloch(n)
            assert s.c0.imag == 0.0
            assert s.c0.real >= 0.0

    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError, match="not on sphere"):
            from_bloch((0.0, 0.0, 1.5))
        with pytest.raises(ValueError, match="not on sphere"):
            from_bloch((0.0, 0.0, 1.0 + 1e-6))

    def test_accepts_bloch_vector_type(self):
        s = from_bloch(BlochVector(0.0, 1.0, 0.0))
        np.testing.assert_allclose([s.c0, s.c1], [SQ2, 1j * SQ2], atol=1e-15)

    def test_round_trip_bloch_to_bloch(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = to_bloch(random_state(rng))
            back = to_bloch(from_bloch(n))
            np.testing.assert_allclose(back.vector, n.vector, atol=1e-9)

    def test_round_trip_state_to_state_same_ray(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            s = random_state(rng)
            assert rays_equal(from_bloch(to_bloch(s)), s, 1e-9)

    def test_purity_of_reconstructed_density_matrix(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = to_bloch(random_state(rng))
            rho = 0.5 * (
                np.eye(2) + n.nx * SIGMA_X + n.ny * SIGMA_Y + n.nz * SIGMA_Z
            )
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert abs(np.trace(rho @ rho) - 1.0) < 1e-12


class TestBlochVector:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit sphere"):
            BlochVector(0.0, 0.0, 0.9)


class TestRandomState:
    def test_deterministic_per_seed(self):
        a, b = random_state(42), random_state(42)
        assert (a.c0, a.c1) == (b.c0, b.c1)
        c = random_state(43)
        assert (a.c0, a.c1) != (c.c0, c.c1)

    def test_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = random_state(rng)
            assert abs(abs(s.c0) ** 2 + abs(s.c1) ** 2 - 1.0) <= 1e-12

    def test_bloch_coordinates_average_to_zero(self):
        # Haar pushforward is uniform on the sphere; 1e5 samples put the
        # component means well inside 0.02.
        fam = random_family(100_000, 2024)
        bloch = np.array([to_bloch(s).vector for s in fam.states])
        means = bloch.mean(axis=0)
        assert np.max(np.abs(means)) < 0.02

    def test_family_determinism_and_size(self):
        f1 = random_family(5, 9)
        f2 = random_family(5, 9)
        assert f1.vectors.tolist() == f2.vectors.tolist()
        with pytest.raises(ValueError, match="positive"):
            random_family(0, 1)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_a_family_is_the_states_drawn_one_at_a_time(self, n):
        rngs = [np.random.default_rng(5) for _ in range(3)]
        family = random_family(n, rngs[0]).states
        one_by_one = [random_state(rngs[1]) for _ in range(n)]
        assert _pairs(family) == _pairs(one_by_one) == _drawn_one_at_a_time(rngs[2], n)
        # and the stream goes on from the same place
        assert len({tuple(rng.standard_normal(3).tolist()) for rng in rngs}) == 1

    def test_a_state_of_tiny_modulus_is_drawn_again(self):
        rngs = [_ShrinksTheSecondState(5) for _ in range(3)]
        family = random_family(3, rngs[0]).states
        one_by_one = [random_state(rngs[1]) for _ in range(3)]
        assert _pairs(family) == _pairs(one_by_one) == _drawn_one_at_a_time(rngs[2], 3)
        assert [rng.drawn for rng in rngs] == [16, 16, 16]


def _pairs(states) -> list:
    return [(s.c0, s.c1) for s in states]


def _drawn_one_at_a_time(rng, n: int) -> list:
    """The amplitude pairs of n Haar-random states drawn as two real and then
    two imaginary normals each, normalized by math.hypot of the moduli, and
    drawn again at a modulus of 1e-6 or less."""
    pairs = []
    while len(pairs) < n:
        c0, c1 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)).tolist()
        norm = math.hypot(abs(c0), abs(c1))
        if norm > 1e-6:
            pairs.append((c0 / norm, c1 / norm))
    return pairs


class _ShrinksTheSecondState(np.random.Generator):
    """A generator whose normals 4 to 7 of its stream, the second state's,
    are 1e-7 times those of PCG64(seed), so that their modulus is refused;
    drawn counts the normals it has given."""

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0

    def standard_normal(self, size):
        x = super().standard_normal(size)
        at = np.arange(self.drawn, self.drawn + x.size).reshape(x.shape)
        x[(4 <= at) & (at < 8)] *= 1e-7
        self.drawn += x.size
        return x


class TestRaysEqual:
    def test_same_ray_under_rephasing(self):
        s = QubitState(0.6, 0.8)
        assert rays_equal(s, s.rephased(1.234), 1e-12)

    def test_orthogonal_rays(self):
        assert not rays_equal(QubitState(1, 0), QubitState(0, 1), 1e-12)

    def test_tiny_rotation_boundary(self):
        # oracle: 1 - |<a, b>|^2 = sin(eps)^2 which is about 1e-18 for
        # eps = 1e-9, below a 1e-12 tolerance, so the rays compare equal
        eps = 1e-9
        a = QubitState(1.0, 0.0)
        b = QubitState(math.cos(eps), math.sin(eps))
        gap = 1.0 - abs(inner(a, b)) ** 2
        assert gap == pytest.approx(1e-18, rel=1e-3)
        assert rays_equal(a, b, 1e-12)

    def test_rotation_above_tolerance(self):
        # sin(1e-5)^2 is about 1e-10, above 1e-12
        eps = 1e-5
        a = QubitState(1.0, 0.0)
        b = QubitState(math.cos(eps), math.sin(eps))
        assert not rays_equal(a, b, 1e-12)
        assert rays_equal(a, b, 1e-9)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError, match="positive"):
            rays_equal(QubitState(1, 0), QubitState(1, 0), 0.0)
