"""rowspace: exact-arithmetic witnesses in adjacency-matrix row spaces.

Tools to construct, certify, and exhaustively verify non-zero (0,1)-vectors
that lie in the row space of a graph's adjacency matrix without occurring as
rows -- the object whose existence a question of Akbari, Cameron, and
Khosrovshahi asserts for every graph with at least one edge.
"""

from .graph import (
    Graph,
    diameter,
    diametral_geodesic,
    duplicate_vertex,
    find_adjacent_disjoint_pair,
    induced_subgraph,
    is_reduced,
    multiply_vertices,
)
from .linalg import (
    MembershipCertificate,
    adjacency_matrix,
    rank,
    solve_membership,
)
from .families import build
from .witness import (
    DEFAULT_ORACLE_LIMIT,
    Strategy,
    StrategyOutcome,
    Witness,
    find_witness,
    lift_witness,
    verify_witness,
    witness_catalog_rank5,
    witness_complete,
    witness_diam_ge4,
    witness_disjoint_nbhd,
    witness_dominating_regular,
)
from .oracle import (
    CapacityError,
    ExhaustiveReport,
    OracleResult,
    brute_force_witness,
    enumerate_all_witnesses,
    exhaustive_verify,
)
from .graph6 import Graph6ParseError, parse_graph6, write_graph6
from .harness import (
    SizeBoundRecord,
    VerificationRecord,
    check_size_bound,
    run_verification,
)

__version__ = "0.1.0"
