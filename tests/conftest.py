import numpy as np
import pytest

from seedwing import mlp, robust
from seedwing.aeromodel import PlateParams, State, rk4_step
from seedwing.closedloop import (DEFAULT_GAINS, SimConfig, fit_norm,
                                 generate_dataset, rows_to_arrays)


@pytest.fixture(scope="session")
def params():
    return PlateParams()


@pytest.fixture(scope="session")
def dataset(params):
    return generate_dataset(SimConfig(), DEFAULT_GAINS, params)


@pytest.fixture(scope="session")
def norm_spec(dataset):
    return fit_norm(dataset)


@pytest.fixture(scope="session")
def data_arrays(dataset, norm_spec):
    return rows_to_arrays(dataset, norm_spec)


@pytest.fixture(scope="session")
def naive_net(data_arrays, norm_spec):
    X, Y = data_arrays
    return mlp.train(mlp.init_network(seed=0, norm=norm_spec), X, Y,
                     epochs=2000, lr=0.02, seed=0)


@pytest.fixture(scope="session")
def adv_net(data_arrays, norm_spec):
    X, Y = data_arrays
    cfg = robust.RobustTrainConfig(epochs=2000, lr=0.02, seed=0)
    return robust.train_adversarial(mlp.init_network(seed=0, norm=norm_spec), X, Y, cfg)


@pytest.fixture(scope="session")
def heavy_params():
    """A heavier plate whose settled glide keeps the relative flow well away
    from the zero-speed singularity; used to exercise reachability."""
    return PlateParams(mass=0.02)


@pytest.fixture(scope="session")
def heavy_settled(heavy_params):
    s = State(1.0, 0.0, 0.0, 0.0, 0.0, 2.0)
    for k in range(500):
        s = rk4_step(s, 0.187, heavy_params, 0.01, t=k * 0.01)
    return np.array(s.as_tuple())
