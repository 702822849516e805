import pytest

from quantogreeks import FuturesSpec, MarketModel, TuningFunction, VolatilityCurve, integrate
from quantogreeks.model import CorrelationMode


def make_model(f0E=100.0, f0I=100.0, sigE=0.2, sigI=0.2, rho=0.0, horizon=1.0,
               rate=0.0, mode=CorrelationMode.PAYOFF_MIXING):
    return MarketModel(
        energy=FuturesSpec(f0E, horizon, horizon),
        energy_vol=VolatilityCurve.constant(sigE, horizon),
        temperature=FuturesSpec(f0I, horizon, horizon),
        temperature_vol=VolatilityCurve.constant(sigI, horizon),
        rho=rho,
        rate=rate,
        correlation_mode=mode,
    )


def kernel_moments(curve, a):
    """(int a^2/sigma^2, int a, int sigma^2): the covariances of (int a/sigma dW, int sigma dW)."""
    return (integrate(lambda s, av: (av / s) ** 2, curve, a),
            integrate(lambda s, av: av, curve, a),
            integrate(lambda s, av: s ** 2, curve, a))


@pytest.fixture
def atm_model():
    """Symmetric at-the-money setup: f0 = k = 100, sigma = 0.2, T = 1, rho = 0."""
    return make_model()


@pytest.fixture
def uniform_tuning():
    return TuningFunction.uniform(1.0)
