"""modshift: exact computation and measurement for linear cellular automata
over finite commutative rings.

Subpackages cover rings and free modules, windowed configurations over
Z^D x N^E, the shift-polynomial calculus with its characteristic-p
fast-forward, submodule/coset shifts as constraint kernels, exact and sampled
measures with Haar/Fourier and mixing diagnostics, and Chinese-remainder
splitting of composite moduli.
"""

from .chars import (
    CharacterSpec,
    RootSum,
    all_characters,
    cyclotomic_polynomial,
    format_character,
    parse_character,
)
from .crt import (
    ConjugacyResult,
    CrtDecomposition,
    component_rule,
    conjugacy_check,
    decompose_ring,
    field_decomposition,
    merge_config,
    merge_product_bernoulli,
    project_measure,
    split_config,
)
from .errors import (
    ConfigParseError,
    DomainExhaustedError,
    InfeasiblePinError,
    InvalidCosetError,
    InvalidParameterError,
    MissingTrivialCharacterError,
    ModshiftError,
    OutOfWindowError,
    ReducibleModulusError,
    ResourceLimitError,
    RingMismatchError,
    UnsupportedCharacteristicError,
)
from .kernels import (
    Cocycle,
    KernelShiftSpec,
    WindowBasis,
    coboundary,
    coset_from_cocycle,
    coset_shift_check,
    enumerate_kernel_words,
    extension_certificate,
    invariance_and_surjectivity_check,
    kernel_membership,
    scaled_coset_in_kernel,
    submodule_condition_check,
    topological_mixing_check,
    torsion_free_check,
    window_kernel,
)
from .lattice import (
    WindowConfig,
    WindowSpec,
    checkerboard_config,
    config_add,
    config_from_function,
    config_scale,
    config_sub,
    constant_config,
    decode_config,
    encode_config,
    restrict_config,
    shift_config,
)
from .measures import (
    BernoulliMeasure,
    CosetHaarMeasure,
    ExactWordMeasure,
    FourierResult,
    FourierSweep,
    FourierTable,
    HaarVerdict,
    MeasureHandle,
    MixingResult,
    RigidityReport,
    SubgroupHaarMeasure,
    TransformedMeasure,
    bernoulli,
    block_entropy,
    coset_haar,
    fourier,
    fourier_sweep,
    haar_criterion,
    kernel_haar,
    mixing_statistic,
    point_mass,
    pushforward,
    rigidity_experiment,
    uniform_bernoulli,
)
from .rings import (
    GFRing,
    ModuleSpec,
    ProductRing,
    Ring,
    ZmodRing,
    is_prime,
    make_ring,
    parse_ring,
    recurrent_power_sums,
    stable_power_subring,
    subring_closure,
)
from .rng import CounterRng
from .shiftpoly import (
    LocalRule,
    ShiftPolynomial,
    apply_poly,
    format_rule,
    from_rule,
    frobenius_power,
    parse_rule,
    poly_mul,
    poly_pow,
    poly_pow_charp,
)

__version__ = "0.1.0"
