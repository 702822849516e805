"""Monte Carlo pricing and hedge sensitivities for two-leg energy quanto options."""

from .model import (
    CorrelationMode,
    MarketModel,
    StepFunction,
    TuningFunction,
    VolatilityCurve,
    integrate,
    validate_model,
)
from .payoffs import (
    DigitalProduct,
    FourStrikeCollar,
    PayoffSpec,
    PiecewiseLinear,
    ProductCall,
    Separable,
    evaluate,
)
from .simulate import (
    SampleDraw,
    SimConfig,
    draw_samples,
    sample_block,
)
from .weights import WeightVariant, greek_of, weight_for
from .estimators import (
    GreekEstimate,
    convergence_table,
    fd_greek,
    mc_estimates,
    mc_greek,
    mc_price,
    quad_greek,
    quad_price,
    residual_risk,
)

__version__ = "0.1.0"
