"""Laplacian spectra of graphs built from cliques joined by chains.

The package computes these spectra twice and reconciles the two routes:
closed-form characteristic equations driven by the chain transfer matrix,
and a self-contained dense Jacobi eigensolver used as the independent
oracle.  On top of that sit explicit localized eigenvectors, interval
bounds, large-p asymptotics, and a reporting CLI.
"""

from .graphs import (
    CliqueDef,
    CliqueNetworkSpec,
    GraphSpec,
    LinkDef,
    Role,
    build_network,
    build_single_chain,
    build_two_chain,
    laplacian,
    network_from_json,
)
from .jacobi import (
    EigGroup,
    JacobiConvergenceError,
    Spectrum,
    eig_sym,
    group_multiplicities,
    residual,
)
from .transfer import (
    ChainState,
    TransferPair,
    phase,
    propagate,
    sigma_pair,
    sigma_plus,
    transfer_matrix,
)
from .characteristic import (
    EdgeFamily,
    RootReport,
    chain_pole_lambdas,
    count_sign_changes_below_band,
    f_one_fin,
    f_one_fin_phase,
    f_one_inf,
    find_chain_roots,
    find_edge_roots,
    q_factor,
    two_chain_fin,
    two_chain_inf,
)
from .bounds import (
    AsymptoticEstimate,
    WeylBounds,
    WeylEntry,
    asymptotic_edge,
    chain_eigenvalues_closed,
    weyl_one,
    weyl_two,
)
from .modes import (
    CliqueCount,
    EdgeMode,
    LabeledValue,
    SpectralClassification,
    chain_mode,
    classify_spectrum,
    clique_modes,
    edge_mode,
    junction_ratio,
)

__version__ = "0.1.0"
