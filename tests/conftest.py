import numpy as np
from hypothesis import HealthCheck, settings

from ewfs.models import RunLog

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def synthetic_log(x, y, a, b, c=None, d=None, kind="ewfs", model="synthetic", lam=None):
    """Hand-built array log for targeted statistics tests.  The default
    model name declares no lambda binning, so no payload is needed."""
    n = len(x)
    as_i8 = lambda v: np.asarray(v, dtype=np.int8)
    zeros = np.zeros(n, dtype=np.int8)
    return RunLog(
        kind,
        model,
        as_i8(x),
        as_i8(y),
        as_i8(a),
        as_i8(b),
        zeros if c is None else as_i8(c),
        zeros.copy() if d is None else as_i8(d),
        lam or {},
    )
