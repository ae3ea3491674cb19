"""Polarization-entangled photon pairs on a timed optical bench.

The quantum model prepares the pair state, applies wave plates, and
collapses it under projective measurement; two local contrast models (a
photon with no polarization until measured, and a deterministic hidden
angle) run the same benches.  Ensembles are seeded, counter-based, and
exactly reproducible at any parallelism.

The top level exports the names the README and the demos use; everything
else is imported from its submodule (``biphoton.engine``, ``.local``,
``.quantum``, ``.rng``).
"""

from .engine import (
    CHUNK,
    MODEL_NAMES,
    OpticalBench,
    analytic_E,
    analytic_chsh,
    build_timeline,
    chsh_experiment,
    order_invariance_report,
    run_ensemble,
)
from .local import CANONICAL_CHSH_ANGLES
from .quantum import (
    AnalyzerSetting,
    Channel,
    apply_element,
    hwp_jones,
    joint_probabilities,
    make_anticorrelated_pair,
    measure_channel,
)
from .rng import derive_seed

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_CHSH_ANGLES",
    "CHUNK",
    "MODEL_NAMES",
    "AnalyzerSetting",
    "Channel",
    "OpticalBench",
    "__version__",
    "analytic_E",
    "analytic_chsh",
    "apply_element",
    "build_timeline",
    "chsh_experiment",
    "derive_seed",
    "hwp_jones",
    "joint_probabilities",
    "make_anticorrelated_pair",
    "measure_channel",
    "order_invariance_report",
    "run_ensemble",
]
