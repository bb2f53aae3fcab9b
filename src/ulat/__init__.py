"""ulat: random lattice periodization and annihilating-pair experiments.

Desk-scale numerical machinery for uncertainty principles over sets of
finite measure: geometric functionals of unions of balls and boxes, random
lattices and their averaging estimates, closed-form test functions with
exact transforms, torus periodizations, Turan-type sup-norm bounds, and the
full probabilistic proof pipeline on concrete instances.
"""

from .geometry import (
    AxisBox,
    Ball,
    CoverCandidate,
    EuclideanSet,
    Rotation,
    cover_measure_upper,
    lebesgue_measure,
    mean_width,
    projection_width,
    sample_rotation,
)
from .lattice import (
    AnnulusIndicator,
    GaussianProfile,
    RandomLattice,
    check_lattice_averaging,
    estimate_card,
    estimate_order,
    intersect,
    order_of,
    polar_constant,
    sample_lattice,
)
from .functions import (
    BoxIndicator,
    Combination,
    Gaussian,
    Modulated,
    TestFunction,
    Translated,
    cross_correlation,
    norm_sq,
    tail_energy,
)
from .periodization import Periodization
from .turan import (
    TorusSet,
    TrigPolynomial,
    poly_order,
    run_campaign,
    sup_norm,
    turan_check,
)
from .annihilation import (
    AnnihilationInstance,
    PipelineTrace,
    disc_ring,
    disc_ring_experiment,
    observed_ratio,
    pipeline_trace,
    translated_sweep,
)
from .mc import Estimate, ExpectationReport

__version__ = "0.1.0"
