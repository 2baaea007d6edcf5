"""Exact toolkit for covering polyhedra of circular 0/1 matrices.

Everything runs over rational arithmetic: construction of instances and
their auxiliary digraph, membership and separation for the integer covering
hull, optimization slice by slice, circuit inequalities, circulant minors,
and a brute-force oracle for cross-checking on small instances.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadParameters,
    BoundViolation,
    BudgetExceeded,
    CertificateError,
    CircoverError,
    DuplicateRow,
    EmptyColumnSet,
    InfeasiblePoint,
    IterationLimit,
    NegativeCoefficient,
    NegativeWeight,
    NoEssentialBullets,
    NonpositiveWinding,
    NotClosedPath,
    NotInterval,
    ReverseRowArcPresent,
)
from .rationals import (
    format_rational,
    format_rational_vector,
    parse_rational,
    parse_rational_vector,
)
from .matrices import (
    CircularMatrix,
    Instance,
    circulant_isomorphic,
    circulant_matrix,
    circular_matrix,
    cover_number,
    interval_row,
    neighborhood_matrix,
    norm_col,
    web_neighborhoods,
)
from .digraph import (
    ARC_KINDS,
    FORWARD_ROW,
    FORWARD_SHORT,
    REVERSE_ROW,
    REVERSE_SHORT,
    Arc,
    AuxDigraph,
    CircuitEnumeration,
    ClosedPath,
    build_digraph,
    enumerate_circuits,
)
from .lp import LPResult, solve_lp
from .oracle import (
    DEFAULT_BUDGET,
    HullDescription,
    check_facet,
    enumerate_minimal_covers,
    hull_facets,
)
from .inequalities import (
    Block,
    BlockStructure,
    CandidateEnumeration,
    LinearInequality,
    MinorEnumeration,
    MinorWitness,
    NodeClasses,
    bad_arcs,
    block_decomposition,
    circuit_inequality,
    classify_nodes,
    enumerate_candidates_general,
    enumerate_circulant_minors,
    enumerate_facet_candidates,
    extract_minor,
    make_inequality,
    nonnegativity,
    row_inequalities,
)
from .separation import (
    CostAssignment,
    CutLoopResult,
    CutLoopStep,
    SeparationResult,
    assign_costs,
    cut_loop,
    negative_circuit,
    separate,
)
from .optimize import OptimizationResult, domination_solve, optimize
from .jsonio import (
    inequality_json,
    load_instance,
    optimization_json,
    separation_json,
)

__version__ = "1.0.0"

# Every public name imported above; submodules bound as attributes are not.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
