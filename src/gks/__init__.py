"""Laboratory for online server problems on products of uniform metrics.

Simulators for three unit-weight online algorithms and a recursive weighted
one, an exact offline optimum, adversarial and random request generators,
and exact proof-style certificates over concrete runs.
"""

from .core import (
    Config,
    GKSError,
    Instance,
    InvalidInputError,
    InvariantViolationError,
    Request,
    ResourceLimitError,
    SequenceFormatError,
    hamming,
    read_sequence,
    satisfies,
    write_sequence,
)
from .spaces import FREE, FeasibleFamily
from .algorithms import (
    AlternativeAlgorithm,
    DistributionTracker,
    GenericAlgorithm,
    RandomizedAlgorithm,
    Step,
)
from .offline import opt_cost, work_function_minima
from .adversaries import antipodal_next, evasive_next, run_closed_loop
from .certify import (
    audit_family_counts,
    audit_phase_motion,
    audit_potential_step,
    build_phase_matrix,
    certify_transcript,
    harmonic,
    potential,
    verify_certificate,
)
from .weighted import WeightedAlgorithm, default_tour_sizes, learning_topk, round_weights

__version__ = "0.1.0"
