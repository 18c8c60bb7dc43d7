import os

# One BLAS thread: the fits make many small matrix products, where extra
# threads only double the CPU time and, on a busy host, oversubscribe the
# cores.  This must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from nvdeer import FieldConfiguration, fitting  # noqa: E402


@pytest.fixture
def field():
    """Working-point field: 37.2 mT tilted 0.1 deg, 2 MHz drive."""
    return FieldConfiguration(37.2, 0.1, 2.0, 1042.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def starts(monkeypatch):
    """One entry per least-squares solve made through nvdeer.fitting."""
    calls = []
    solve = fitting.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fitting, "least_squares", counted)
    return calls
