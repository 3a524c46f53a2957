"""Margin-based multi-class scoring disagreement for domain adaptation.

Pointwise margin primitives, exact and estimated distribution divergences
with their generalization bounds, differentiable surrogates, two-head
adversarial trainers, and synthetic shifted datasets, all at desk scale on
plain numpy.
"""

from .divergence import (
    AdversarialDivergence,
    BoundViolation,
    ExactDivergence,
    PacBoundReport,
    RademacherEstimate,
    SampleSet,
    ScorerGrid,
    divergence_exact_variant,
    linear_scorer,
    margin_error,
    mcsd_divergence_adversarial,
    mcsd_divergence_exact,
    mcsd_rows,
    pac_bound_report,
    rademacher_estimate,
    violation_tensor,
    zero_one_error,
)
from .margin import (
    ScoreVector,
    absolute_margin,
    argmax_label,
    as_scores,
    mcsd_hat_pointwise,
    mcsd_pointwise,
    mcsd_tilde_pointwise,
    phi_distance,
    ramp_loss,
    relative_margin,
    source_margin_loss,
    violation_matrix,
)
from .neural import (
    MlpScorer,
    Schedules,
    SgdMomentum,
    grad_reversal_step,
    lambda_schedule,
    lr_schedule,
)
from .surrogates import (
    log_loss,
    sigmoid,
    softmax,
    sur_ce,
    sur_kl,
    sur_l1,
)
from .synthdata import (
    DomainPair,
    gen_gauss_blobs,
    gen_rotated_moons,
    make_openset,
    make_partial,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"
