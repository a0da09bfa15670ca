"""Dense float64 array helpers and finite-value guards.

Tensors are plain numpy arrays: row-major, double precision, rank 1-4.
Engine code calls check_finite after anything that could overflow so a
NaN/Inf surfaces as an error instead of propagating into the metrics.
"""

import numpy as np

from .errors import NumericError


def check_finite(arr, context):
    """Raise NumericError if arr contains NaN or Inf; returns arr."""
    if not np.all(np.isfinite(arr)):
        bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
        raise NumericError(f"non-finite values ({bad} elements) in {context}")
    return arr
