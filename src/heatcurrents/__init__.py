"""Heat-kernel measures on groups of torus-to-SU(n) maps.

Samples the group-valued stochastic flow driven by spectrally colored
algebra-valued noise, verifies its law statistically, and realizes the
finite-dimensional central extension of the current group (Killing
cocycle, lattice torus, Haar lift).
"""

from .brownian import (
    CovarianceSpec,
    covariance_kernel,
    kernel_gram,
    pointwise_variance,
    sample_increment,
)
from .diagnostics import (
    StatReport,
    character_target,
    character_test,
    covariance_test,
    default_config,
    drift_report,
    regularity_probe,
    reports_to_json,
    run_check,
    strong_convergence_test,
    weak_order_test,
)
from .extension import (
    CohomologyVector,
    LatticeSpec,
    central_brownian_marginal,
    cocycle,
    extended_bracket,
    haar_sample,
    leibniz_check,
    reduce_mod_lattice,
    sample_extension,
)
from .fields import AlgebraField, field_bracket, field_killing
from .lie import LieBasis, build_basis, exp_batch, log_batch
from .rng import RNG_ALGORITHM, RngStream, diagnostic_stream, substream
from .sde import (
    FieldState,
    SdeConfig,
    sample_ensemble,
    sample_field,
    sample_marginal,
    step,
)
from .storage import (
    ChecksumMismatchError,
    EnsembleManifest,
    FormatVersionError,
    StorageError,
    TruncatedPayloadError,
    read_ensemble,
    write_ensemble,
)
from .torus import SpectralBasis, TorusGrid, build_grid, build_spectrum, quadrature

__version__ = "0.1.0"
