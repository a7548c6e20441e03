"""clusterlab: cluster variables and loop elements of surface cluster
algebras, computed both by seed mutation and by the snake/band graph
matching expansion, with exact Laurent-polynomial identity checks."""

from .algebra import (
    KERNEL_BACKEND,
    LaurentPolynomial,
    NotDivisible,
    SemifieldSpec,
    TropicalMonomial,
    chebyshev,
    specialize,
    tropical_eval,
)
from .errors import ClusterlabError
from .mutation import (
    Seed,
    initial_seed,
    matrix_rank,
    mutate,
    mutate_seq,
)
from .snake import (
    MatchingGraph,
    build_band,
    build_snake,
    expand,
    expand_band,
    trim_to_band,
)
from .surface import (
    ArcCrossing,
    LoopCrossing,
    Triangulation,
    builtin_genus,
    builtin_genus1,
    builtin_genus2,
)

__version__ = "0.1.0"
