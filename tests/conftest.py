import math

import pytest

import phasebound.estimate as estimate_module
import phasebound.model as model_module
import phasebound.rbound as rbound_module
from phasebound import (
    GhzParityModel,
    PhaseDomain,
    QuadratureGrid,
    family45_prior,
    flat_prior,
)


@pytest.fixture(scope="session")
def model():
    return GhzParityModel(2)


@pytest.fixture(scope="session")
def domain():
    return PhaseDomain()


@pytest.fixture(scope="session")
def grid():
    return QuadratureGrid.simpson(0.0, math.pi / 2)


@pytest.fixture(scope="session")
def flat(grid):
    return flat_prior(PhaseDomain(), grid)


@pytest.fixture(scope="session")
def prior_battery(grid, flat):
    """The priors exercised throughout: flat plus four exponential-sine shapes."""
    priors = {"flat": flat}
    for alpha in (-100.0, -10.0, 1.0, 10.0):
        priors[f"alpha={alpha:g}"] = family45_prior(alpha, grid)
    return priors


@pytest.fixture
def fresh_workspace(monkeypatch):
    """``call(fn, *args)``: ``fn(*args)`` on a new, empty ``model._Workspace``.

    The new workspace takes the place of the module's instance in every
    module that binds it, for that one call, as if it were a process's first.
    """
    def call(fn, *args):
        with monkeypatch.context() as patch:
            workspace = model_module._Workspace()
            for module in (model_module, estimate_module, rbound_module):
                patch.setattr(module, "_workspace", workspace)
            return fn(*args)
    return call
