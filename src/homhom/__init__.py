"""Deciders for the six connected-source extension-homogeneity classes.

A finite graph belongs to one of these classes when every morphism of a given
kind (isomorphism, monomorphism, homomorphism) from a finite connected induced
subgraph into the graph extends to a global map of a second kind (automorphism
or endomorphism).  The package decides membership two independent ways — a
definition-level search oracle and structure-matching recognizers — and
cross-verifies them exhaustively on small graphs.
"""

from .families import (
    FamilyDescriptor,
    bcpm_graph,
    biclique_chain,
    clebsch_graph,
    clique_chain,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_graphs,
    multiclaw_graph,
    path_graph,
    pcm_example_graph,
    petersen_graph,
    regular_multipartite_graph,
    rook_graph,
    two_squares_graph,
)
from .graphs import (
    Graph,
    canonical_form,
    connected_components,
    disjoint_union,
    from_edge_list_text,
    from_edges,
    from_graph6,
    induced_subgraph,
    is_connected,
    to_edge_list_text,
    to_graph6,
)
from .morphisms import (
    MorphKind,
    core_mask,
    enumerate_morphisms,
)
from .oracle import (
    BUDGET_ENV_VAR,
    CLASS_CODES,
    BudgetExceededError,
    ClassQuery,
    OracleResult,
    Witness,
    extension_morphic,
    extension_symmetric,
    is_class_member,
    query_for_code,
    validate_witness,
)
from .recognizers import (
    CHH_FAMILY_KINDS,
    ChhFamily,
    ClassEntry,
    ClassReport,
    PcmCertificate,
    Verdict,
    b1_holds,
    b2_star_holds,
    chh_connected_families,
    chh_symmetric,
    classify,
    classify_cii,
    complete_multipartite_parts,
    embeds_pcm,
    is_bcpm,
    is_chh,
    is_chi,
    is_cmi,
    is_kn_treelike,
    multiclaw_parameters,
    pcm_extract,
    recognizer_verdict,
    validate_pcm_certificate,
)

__version__ = "0.1.0"
