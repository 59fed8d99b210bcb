"""Pairwise comparison geometry of finite qubit state families.

Compare a family of qubit states on three levels (overlap amplitudes,
transition probabilities, unit phases), compute its three-point loop
invariants (Bargmann invariants, triangular defects, geometric phases,
Bloch solid angles), and decide when prescribed comparison data is
realizable by actual states.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every exported name, once, after the module that defines it.  A name is
# imported on first use (PEP 562): "import qpc" loads neither numpy nor any
# module of the package, so that python -m qpc reaches __main__, which
# guards the command's imports against Ctrl-C, at once.
_MODULES = {
    "comparisons": "DEFAULT_ZERO_TOL GramMatrix PhaseMatrix ProbabilityMatrix SupportGraph "
                   "check_matching gram orthogonality_graph phases probabilities",
    "files": "FileFormatError Records dump_doc family_doc family_from_json family_to_json "
             "load_text matrix_doc matrix_from_json matrix_to_json save_text",
    "invariants": "TriangleReport TriangleTable all_triangles bargmann bargmann_bloch defect "
                  "solid_angle triangle_report",
    "oracles": "OracleReport oracle_bargmann_direct oracle_pauli_traces oracle_trace_product",
    "realizability": "GramRefusal GramVerdict RealizabilityResult SearchConfig check_gram "
                     "factor_states is_coherent realize_coherent realize_gram realize_phases",
    "states": "BlochVector QubitState StateFamily from_bloch inner projector random_family "
              "random_state rays_equal to_bloch",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    """An exported name, imported from its module on first use.  Any other
    name is an AttributeError, so that "from qpc import cli" imports the
    submodule."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME})
