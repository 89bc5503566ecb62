import importlib.util
from pathlib import Path

import numpy as np
import pytest

from privacy_lab import MarketParams

GRID_SEED = 20260809


def _load_oracle():
    """bench/oracle.py, the 40-digit mpmath reference that the tests and the
    bench share, loaded from its file so no other bench module is importable.
    Loading it sets mpmath's working precision to 40 digits for the session."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def make_param_grid(n=1000, seed=GRID_SEED):
    """Random parameter grid: log-uniform sigma_v, sigma_u in [1e-3, 1e3],
    uniform sigma_eps in [0, 1e3]."""
    rng = np.random.default_rng(seed)
    sigma_v = 10.0 ** rng.uniform(-3, 3, n)
    sigma_u = 10.0 ** rng.uniform(-3, 3, n)
    sigma_eps = rng.uniform(0.0, 1e3, n)
    return [MarketParams(float(a), float(b), float(c)) for a, b, c in zip(sigma_v, sigma_u, sigma_eps)]


@pytest.fixture(scope="session")
def grid1000():
    return make_param_grid()
