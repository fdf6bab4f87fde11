import pytest
from hypothesis import HealthCheck, settings

# pure-numpy Jacobi solves take milliseconds and vary with machine load,
# which would trip hypothesis' per-example deadline
settings.register_profile(
    "kernels", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("kernels")


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run one evaluation up front so the first test does not also pay
    first-call setup costs."""
    import skewsum as sk

    state = sk.random_mixed(3, seed=11)
    obs = [sk.random_observable(3, seed=s) for s in (12, 13, 14)]
    sk.evaluate_all(state, obs)


@pytest.fixture
def make_instance():
    """Deterministic (state, observables) factory shared across tests."""
    from skewsum.cli import fuzz_instance

    def make(dim: int, n: int, trial: int, seed: int = 20260814):
        state, obs, _kind = fuzz_instance(seed, dim, n, trial)
        return state, obs

    return make
