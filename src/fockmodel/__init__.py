"""fockmodel: constrained dilation/model theory of row contractions, truncated.

Everything is computed on the degree-<= d slice of the full Fock space over n
noncommuting generators, where the key operator identities (kernel isometry
up to an exactly-computed tail, factorization of the identity, coincidence of
characteristic functions under spatial unitaries) hold to rounding rather
than approximately.  See the module docstrings for the conventions.
"""

__version__ = "0.1.0"

from .fock import (
    TruncatedFockSpace,
    Word,
    creation_targets,
    enumerate_words,
    flip_unitary,
    left_creation,
    left_creation_tuple,
    right_creation,
    right_creation_tuple,
    word_count,
    word_label,
)
from .ideals import (
    ConstrainedSubspace,
    NCPoly,
    PolyIdealSpec,
    constrained_creation,
    constrained_creation_tuple,
    ideal_subspace,
)
from .contractions import (
    Classification,
    DefectData,
    TriState,
    ValidationReport,
    classify,
    constraint_residual,
    defects,
    phi_power,
    phi_step,
    row_matrix,
    spectral_radius_of_phi,
    truncation_tail,
    validate,
)
from .poisson import (
    KernelMatrix,
    constrained_poisson_kernel,
)
from .charfn import (
    CharFn,
    DeltaClassification,
    coincidence_necessary_mismatch,
    constrained_characteristic_function,
    delta_and_classify,
    evaluate,
    fourier_block,
    fourier_sum,
)
from .model import (
    CoincidenceWitness,
    EquivalenceReport,
    GammaResult,
    ModelData,
    ModelOperators,
    build_model,
    coincidence_from_unitary,
    verify_coincidence_implies_equivalence,
)
from .problem_io import (
    Problem,
    ProblemFormatError,
    load_problem,
    load_unitary,
    save_problem,
    save_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
