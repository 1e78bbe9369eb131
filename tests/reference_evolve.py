"""The allocating split-step loop, kept as a test oracle.

This is ``evolve.advance`` as it stood before its step was fused and made to
work in place: each step allocates the transforms, a complex
exp(i dt |u|^alpha) from ``np.abs``, and checks every element for
finiteness.  The production step must reach the same field to rounding and
raise ``BlowUpDetected`` at the same time.
"""

import numpy as np

from solitonlab.errors import BlowUpDetected, ParameterError
from solitonlab.grid import ComplexField
from solitonlab.petviashvili import power, symbol


def reference_advance(field, alpha, dt, n_steps, beta=1.0, t0=0.0):
    """Advance n_steps Strang steps from time t0; raises BlowUpDetected."""
    if not dt > 0:
        raise ParameterError("dt must be positive")
    if n_steps == 0:
        return field
    lin = np.exp(-1j * symbol(field.grid.wavenumbers, 0.0, beta) * dt)
    u = field.values * np.exp(0.5j * dt * power(field.values, alpha))
    for k in range(n_steps - 1):
        u = np.fft.ifft(lin * np.fft.fft(u))
        if not np.all(np.isfinite(u)):
            raise BlowUpDetected(t0 + (k + 1) * dt)
        u *= np.exp(1j * dt * power(u, alpha))
    u = np.fft.ifft(lin * np.fft.fft(u))
    u *= np.exp(0.5j * dt * power(u, alpha))
    if not np.all(np.isfinite(u)):
        raise BlowUpDetected(t0 + n_steps * dt)
    return ComplexField(field.grid, u)
