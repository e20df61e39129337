"""Spectral diagnostics for over-smoothing in graph neural network dynamics."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DomainError,
    GraphFormatError,
    InsufficientDataError,
    NumericalError,
)
from .graph_core import (  # noqa: F401
    Graph,
    GraphStats,
    largest_connected_component,
    load_cora,
    load_edge_list,
    load_tu_dataset,
    make_graph,
    stats,
)
from .operators import (  # noqa: F401
    GraphOperator,
    OperatorKind,
    build,
    commutation,
    commutator,
    kernel_generator,
)
from .energy import (  # noqa: F401
    axiom1_check,
    axiom2_check,
    descriptor_for,
    dirichlet_energy,
    measure,
    normalize_conjugation,
)
from .spectral import (  # noqa: F401
    SpectralDecomposition,
    SuperpositionMatrix,
    eigendecompose,
    energy_via_superposition,
    superposition,
)
from .dynamics import (  # noqa: F401
    DecayFit,
    FirstLayerWeights,
    LayerTrace,
    PerLayerWeights,
    PropagationConfig,
    RegimeVerdict,
    classify_regime,
    energy_ratio_trace,
    fit_decay,
    propagate,
)
