"""The Gamma-function transform of the explicit wave, kept as a test oracle.

Only the tests compare against it, so it lives here and keeps
``scipy.special`` out of the package's import graph.
"""

import math

import numpy as np
from scipy.special import loggamma

from model_oracle import DomainError
from solitonlab.explicit import explicit_params


def phi_hat_exact(alpha: float, xi) -> np.ndarray:
    """Gamma-function form of the transform of the explicit wave.

    Positive and even in xi; defined up to the source's Fourier-normalization
    constant, which callers fit once at xi = 0 when comparing with discrete
    transforms.
    """
    p = explicit_params(alpha)
    xi = np.asarray(xi, dtype=float)
    z = 2.0 / p.alpha + 1j * xi / (2.0 * p.b0)
    log_val = (
        (4.0 / p.alpha - 2.0) * math.log(2.0)
        + 2.0 * np.real(loggamma(z))
        - float(loggamma(4.0 / p.alpha).real)
    )
    with np.errstate(over="raise"):
        try:
            out = (p.a0 / p.b0) * np.exp(log_val)
        except FloatingPointError as exc:
            raise DomainError("Gamma formula overflows at the requested xi") from exc
    if not np.all(np.isfinite(out)):
        raise DomainError("Gamma formula is not finite at the requested xi")
    return out
