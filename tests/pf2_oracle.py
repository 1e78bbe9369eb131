"""Discrete PF(2) (log-concavity) check, kept as a test oracle.

Only the tests certify log-concavity of sampled transforms, so the check
lives here rather than in ``solitonlab.spectra``.
"""

import numpy as np

from model_oracle import DomainError


def check_pf2_logconcavity(samples: np.ndarray) -> bool:
    """Discrete log-concavity of positive samples on a uniform xi-grid.

    True iff the second difference of log(samples) is negative at every
    interior node, excluding the node adjacent to the maximum (xi = 0) where
    equality can occur to rounding.
    """
    samples = np.asarray(samples, dtype=float)
    if np.any(samples <= 0):
        raise DomainError("PF(2) check requires strictly positive samples")
    log_s = np.log(samples)
    second = log_s[:-2] - 2.0 * log_s[1:-1] + log_s[2:]
    center = int(np.argmax(samples))
    interior = np.arange(1, samples.size - 1)
    keep = np.abs(interior - center) > 1
    return bool(np.all(second[keep] < 0))
