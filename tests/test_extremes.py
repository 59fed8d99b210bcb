"""NaN, infinities and huge finite numbers at every constructor and loader,
and as every tolerance.

Each call must either return or raise ValueError (FileFormatError is
one); it must never warn, overflow or fail in any other way.  Extreme
sizes are only declared in documents, never allocated.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc import (
    BlochVector,
    GramMatrix,
    PhaseMatrix,
    ProbabilityMatrix,
    QubitState,
    SupportGraph,
    all_triangles,
    check_gram,
    family_from_json,
    from_bloch,
    gram,
    is_coherent,
    matrix_from_json,
    orthogonality_graph,
    phases,
    random_family,
    rays_equal,
    realize_coherent,
    realize_gram,
    triangle_report,
)

EXTREME = [math.nan, math.inf, -math.inf, 1.7976931348623157e308, -1e308, 1e200, 1.5e154,
           5e-324, 0.0, -0.0, 1.0, 2.0 ** -0.5]
FLOATS = st.one_of(st.sampled_from(EXTREME), st.floats())
COMPLEX = st.one_of(st.builds(complex, FLOATS, FLOATS), st.sampled_from(
    [complex(x, y) for x in EXTREME[:5] for y in EXTREME[:5]]))
# JSON numbers also include integer literals past the double range
JSON_NUMBERS = st.one_of(FLOATS, st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024]))
# declared sizes: the ones the documents hold, and ones no array could have
SIZES = st.sampled_from([1, 2, 3, 10 ** 9, 2 ** 62, 10 ** 30])


def planted(draw, base: np.ndarray, values, hermitian: bool) -> np.ndarray:
    """base with a few entries overwritten by drawn values, mirrored into
    the transposed cell (conjugated) when hermitian is drawn."""
    a = base.copy()
    n = len(a)
    mirror = hermitian and draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i, j] = draw(values)
        if mirror:
            a[j, i] = np.conj(a[i, j])
    return a


def number_doc(draw, x: float):
    return draw(JSON_NUMBERS) if draw(st.booleans()) else x


def family_text(draw) -> str:
    states = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            states.append({"bloch": [number_doc(draw, x) for x in (0.0, 0.6, 0.8)]})
        else:
            parts = [number_doc(draw, x) for x in (2.0 ** -0.5, 0.0, 0.0, 2.0 ** -0.5)]
            states.append({"c0": {"re": parts[0], "im": parts[1]},
                           "c1": {"re": parts[2], "im": parts[3]}})
    return json.dumps({"version": 1, "states": states})


def matrix_text(draw) -> str:
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gram", "probability", "phase"]))
    doc = {"version": 1, "kind": kind, "n": draw(st.sampled_from([k, draw(SIZES)]))}
    if kind == "phase":
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        index = st.one_of(st.integers(-1, k), st.sampled_from([10 ** 29, -(2 ** 63)]))
        doc["support"] = [[i, draw(index)] if draw(st.booleans()) else [i, j] for i, j in pairs]
        doc["entries"] = [{"re": number_doc(draw, 0.6), "im": number_doc(draw, 0.8)} for _ in pairs]
    elif kind == "gram":
        doc["entries"] = [{"re": number_doc(draw, float(i == j)), "im": number_doc(draw, 0.0)}
                          for i in range(k) for j in range(k)]
    else:
        doc["entries"] = [number_doc(draw, 1.0) for _ in range(k * k)]
    return json.dumps(doc)


@st.composite
def calls(draw):
    """One constructor or loader and its drawn arguments."""
    target = draw(st.sampled_from(list(range(11))))
    n = draw(st.integers(1, 3))
    eye = np.eye(n, dtype=complex)
    if target == 0:
        return QubitState, (draw(COMPLEX), draw(COMPLEX))
    if target == 1:
        return QubitState.normalized, (draw(COMPLEX), draw(COMPLEX))
    if target == 2:
        return BlochVector, (draw(FLOATS), draw(FLOATS), draw(FLOATS))
    if target == 3:
        return from_bloch, ([draw(FLOATS), draw(FLOATS), draw(FLOATS)],)
    if target == 4:
        return GramMatrix, (planted(draw, eye, COMPLEX, True),)
    if target == 5:
        judge = draw(st.sampled_from([check_gram, realize_gram]))
        return judge, (planted(draw, eye, COMPLEX, True),)
    if target == 6:
        return ProbabilityMatrix, (planted(draw, eye.real, FLOATS, True),)
    if target == 7:
        support = SupportGraph.from_mask(~np.eye(n, dtype=bool))
        entries = planted(draw, np.full((n, n), 1j) * np.triu(np.ones((n, n)), 1)
                          + np.full((n, n), -1j) * np.tril(np.ones((n, n)), -1) + eye,
                          COMPLEX, True)
        return PhaseMatrix, (n, entries, support)
    if target == 8:
        index = st.one_of(st.integers(-n, n), st.sampled_from([10 ** 29, -(2 ** 63)]))
        values = {(draw(index), draw(index)): draw(COMPLEX) for _ in range(draw(st.integers(0, 3)))}
        return PhaseMatrix.from_edges, (draw(SIZES) if draw(st.booleans()) else n, values)
    if target == 9:
        return family_from_json, (family_text(draw),)
    return matrix_from_json, (matrix_text(draw),)


@settings(max_examples=600, deadline=None)
@given(calls())
def test_raises_value_error_or_returns_without_warning(call):
    fn, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args)
        except ValueError:
            pass


# a family with every overlap above zero_tol, and an exactly coherent
# prescription, so that each call below succeeds at any valid tolerance
FAMILY = random_family(4, seed=0)
G = gram(FAMILY)
COHERENT = PhaseMatrix.from_edges(3, {(0, 1): 1j, (1, 2): 1j, (0, 2): -1.0})
MATCH_TOL_CALLS = {
    "rays_equal": lambda tol: rays_equal(FAMILY[0], FAMILY[0], tol),
    "is_coherent": lambda tol: is_coherent(COHERENT, tol),
    "realize_coherent": lambda tol: realize_coherent(COHERENT, tol),
}
ZERO_TOL_CALLS = {
    "phases": lambda tol: phases(G, tol),
    "orthogonality_graph": lambda tol: orthogonality_graph(G, tol),
    "all_triangles": lambda tol: all_triangles(G, tol),
    "triangle_report": lambda tol: triangle_report(G, 0, 1, 2, tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
@pytest.mark.parametrize("name", sorted(MATCH_TOL_CALLS))
def test_a_match_tolerance_is_positive_and_finite(name, tol):
    with pytest.raises(ValueError, match="must be positive and finite"):
        MATCH_TOL_CALLS[name](tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
@pytest.mark.parametrize("name", sorted(ZERO_TOL_CALLS))
def test_a_zero_tol_is_finite_and_not_negative(name, tol):
    with pytest.raises(ValueError, match="zero_tol must be finite and >= 0"):
        ZERO_TOL_CALLS[name](tol)


@pytest.mark.parametrize("tol", [0.0, -0.0])
@pytest.mark.parametrize("name", sorted(ZERO_TOL_CALLS))
def test_a_zero_tol_of_zero_is_accepted(name, tol):
    ZERO_TOL_CALLS[name](tol)
