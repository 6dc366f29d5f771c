"""Splittings of right-angled Artin groups over free abelian subgroups.

The defining graph is the single source of truth: a right-angled Artin
group splits over a free abelian group of rank n exactly when its graph
is complete with n+1 vertices, or contains an n-vertex clique whose
ambient graph is cut apart by a clique inside it.  This package decides
that criterion, produces explicit witnesses and amalgam presentations,
decomposes graphs along complete cuts, and runs finite-box experiments
on coarse separation in integer lattices.

Entry points:

* :mod:`raagsplit.graphs` for graphs, cliques, separators
* :mod:`raagsplit.splitting` for the decision procedure and witnesses
* :mod:`raagsplit.ccd` for complete-cut-decompositions
* :mod:`raagsplit.presentations` for presentations and amalgams
* :mod:`raagsplit.lattice` for the lattice experiments
* :mod:`raagsplit.formats` and :mod:`raagsplit.cli` for I/O

The graph layers and the graph commands do not import numpy.
:mod:`raagsplit.lattice` and the ``lattice`` command need it, so the
package imports the lattice module on first use of a lattice name such
as ``LatticeScenario`` or ``deep_components``.
"""

__version__ = "0.1.0"

from .errors import (
    DisconnectedGraphError,
    GraphParseError,
    InternalInvariantError,
    InvalidAmalgamError,
    InvalidArgumentError,
    InvalidCcdError,
    InvalidRankError,
    InvalidScenarioError,
    InvalidVertexError,
    NotACliqueError,
    NotSeparatingCliqueError,
    RaagsplitError,
    ScenarioTooLargeError,
    StarCoversGraphError,
)
from .graphs import Graph, complete_graph, cycle_graph, empty_graph, path_graph
from .splitting import (
    DIRECT_AMALGAM,
    HNN_COMPLETE,
    STAR_SPLIT,
    SplittingWitness,
    brute_force_splits,
    extend_clique_to_rank,
    splits_over_rank,
    splitting_spectrum,
)
from .ccd import (
    CcdTree,
    CcdValidation,
    GraphOfGroups,
    complete_cut_decomposition,
    graph_of_groups,
    validate_ccd,
)
from .presentations import (
    Amalgam,
    Presentation,
    direct_amalgam,
    normalizer_of_special,
    raag_presentation,
    star_split,
    verify_amalgam,
    verify_star_split,
)
from .formats import GraphDocument, parse_graph, serialize_graph

_LATTICE_NAMES = (
    "CatalogSpec",
    "LatticeScenario",
    "SeparationReport",
    "SubgroupSpec",
    "check_rank_separation",
    "deep_components",
    "quasi_density_check",
)


def __getattr__(name):
    if name in _LATTICE_NAMES:
        from . import lattice

        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LATTICE_NAMES))

__all__ = [
    "__version__",
    "Graph",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "path_graph",
    "SplittingWitness",
    "HNN_COMPLETE",
    "DIRECT_AMALGAM",
    "STAR_SPLIT",
    "splits_over_rank",
    "splitting_spectrum",
    "extend_clique_to_rank",
    "brute_force_splits",
    "CcdTree",
    "CcdValidation",
    "GraphOfGroups",
    "complete_cut_decomposition",
    "validate_ccd",
    "graph_of_groups",
    "Presentation",
    "Amalgam",
    "raag_presentation",
    "normalizer_of_special",
    "direct_amalgam",
    "star_split",
    "verify_amalgam",
    "verify_star_split",
    "LatticeScenario",
    "SubgroupSpec",
    "CatalogSpec",
    "SeparationReport",
    "deep_components",
    "check_rank_separation",
    "quasi_density_check",
    "GraphDocument",
    "parse_graph",
    "serialize_graph",
    "RaagsplitError",
    "InvalidVertexError",
    "InvalidRankError",
    "InvalidArgumentError",
    "NotACliqueError",
    "NotSeparatingCliqueError",
    "StarCoversGraphError",
    "DisconnectedGraphError",
    "InvalidCcdError",
    "InvalidAmalgamError",
    "InvalidScenarioError",
    "ScenarioTooLargeError",
    "GraphParseError",
    "InternalInvariantError",
]
