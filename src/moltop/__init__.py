"""Topological molecular fingerprints with uncertainty-aware boosted trees.

Pipeline: parse molecules (SMILES subset or JSON graphs), build sublevel
vertex sequences for atomic mass / partial charge / bond type / chirality,
compute Vietoris-Rips persistence over graph geodesic distances per level,
flatten the Betti curves into a fixed-layout integer fingerprint, and train
noisy-gradient boosted-tree ensembles that decompose predictive uncertainty
into knowledge (epistemic) and data (aleatoric) parts.
"""

from .errors import (
    ChargesRequiredError,
    ConfigError,
    DataError,
    InternalInvariantError,
    LayoutMismatchError,
    MoltopError,
    SchemaError,
    SmilesParseError,
    UnsupportedElementError,
)
from .molgraph import (
    Atom,
    Bond,
    DatasetRecord,
    MolecularGraph,
    detect_rings,
    expand_hydrogens,
    graph_to_json_dict,
    load_graph_json,
    mirror,
    parse_smiles,
    relabel,
)
from .filtration import (
    FILTRATION_KINDS,
    FiltrationSpec,
    SublevelSequence,
    build_sequence,
    make_spec,
)
from .homology import (
    DistanceMatrix,
    FilteredComplex,
    PersistenceDiagram,
    build_vr_row,
    geodesic_distances,
    reduce_complex,
)
from .vectorize import (
    Fingerprint,
    FingerprintLayout,
    FingerprintTable,
    assemble,
    betti_curve,
    fingerprint_dataset,
    prepare_graph,
)
from .metrics import (
    MatchingDistanceReport,
    fingerprint_distance,
    induced_distance,
    matching_report,
    wasserstein,
)
from .sglb import (
    SglbConfig,
    SglbEnsemble,
    SglbModel,
    UncertaintyReport,
    decompose_classification,
    decompose_regression,
    fit,
    fit_ensemble,
    rank_by_uncertainty,
)
from .harness import (
    RunConfig,
    apply_split,
    evaluate,
    load_dataset,
    load_run_config,
    run_benchmark,
)

__version__ = "0.1.0"
