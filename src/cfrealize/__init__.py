"""Toolkit for generating-series analysis of semimartingale-driven systems.

Pipeline: generate the word-indexed coefficient series of a state-space
model (exact rational arithmetic), analyse it through truncated Hankel and
Lie ranks, synthesize bilinear realizations from coefficient data, and
verify everything pathwise by simulating driving noise, iterated
Stratonovich integrals, and functional-derivative identities.
"""

from .errors import (
    AlphabetError,
    CFError,
    DegreeError,
    DivergenceError,
    LevelSizeError,
    ModeMismatchError,
    MonomialBudgetError,
    ParseError,
    PositivityError,
    RankExceededError,
    ShiftInconsistencyError,
    StabilizationError,
)
from .fps import (
    FLOAT,
    RATIONAL,
    Series,
    coefficient,
    hankel_column,
    read_series,
    series_linear_combine,
    series_product,
    shuffle,
    to_float,
    word_index,
    word_key,
    words_up_to,
)
from .freelie import (
    expand_bracket,
    foliage,
    format_bracket,
    is_lyndon,
    lyndon_words,
    standard_bracketing,
)
from .hankel import (
    HankelBlock,
    RankReport,
    f_y_apply,
    hankel_build,
    lie_rank,
    rank_exact,
    rank_numeric,
)
from .paths import (
    IteratedIntegralTable,
    QSpec,
    SamplePath,
    cf_trajectory,
    iterated_stratonovich,
    make_grid,
    normalize_filter,
    sample_brownian,
    sample_diffusion_input,
    simulate_analytic,
    simulate_bilinear,
    simulate_states,
    zakai_build,
)
from .realize import (
    LinearRealization,
    RealizationResult,
    bilinear_realize,
    linear_ho_kalman,
    markov_hankel,
    markov_to_series,
    verify_realization,
)
from .symdiff import (
    AnalyticModel,
    BilinearModel,
    MultiPoly,
    PolyVectorField,
    bilinear_coefficients,
    cf_coefficients,
    lie_derivative,
    linear_embedding,
    parse_model,
    parse_polynomial,
    poly_eval,
    read_model,
    stratonovich_to_ito_drift,
)

__version__ = "0.1.0"
