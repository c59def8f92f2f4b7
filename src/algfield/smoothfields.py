"""Seeded random smooth functions built from low-frequency Fourier modes.

Randomized fields throughout the package (CLI sweeps, convergence checks)
are trigonometric polynomials with integer wave vectors, so they are
exactly periodic on grids spanning ``[0, 2*pi)`` per axis and have
analytic gradients.  Everything is drawn from a caller-supplied
``numpy.random.Generator``; the same seed reproduces the same field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrigPolynomial:
    """``f(x) = sum_m amp_m * cos(<w_m, x> + phase_m)`` with analytic gradient."""

    waves: np.ndarray      # (n_modes, dim) integer wave vectors
    amplitudes: np.ndarray  # (n_modes,)
    phases: np.ndarray      # (n_modes,)

    def __call__(self, x) -> float:
        arg = self.waves @ np.asarray(x, dtype=float) + self.phases
        return float(np.dot(self.amplitudes, np.cos(arg)))

    def gradient(self, x) -> np.ndarray:
        arg = self.waves @ np.asarray(x, dtype=float) + self.phases
        return -(self.amplitudes * np.sin(arg)) @ self.waves

    def on_points(self, x: np.ndarray) -> tuple:
        """Values and gradients at stacked points ``x[..., dim]``: shapes ``(...)``
        and ``(..., dim)``.  Agrees with ``__call__`` and ``gradient`` to rounding."""
        arg = x @ self.waves.T
        arg += self.phases
        values = np.cos(arg) @ self.amplitudes
        np.sin(arg, out=arg)
        arg *= -self.amplitudes
        return values, arg @ self.waves


def trig_polynomial(rng: np.random.Generator, dim: int, n_modes: int = 3,
                    max_freq: int = 1, amplitude: float = 1.0) -> TrigPolynomial:
    """Draw one random trigonometric polynomial on the ``dim``-torus."""
    waves = rng.integers(-max_freq, max_freq + 1, size=(n_modes, dim))
    amplitudes = amplitude * rng.uniform(-1.0, 1.0, size=n_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    return TrigPolynomial(waves=waves.astype(float), amplitudes=amplitudes, phases=phases)


def trig_vector(rng: np.random.Generator, dim: int, n_components: int,
                n_modes: int = 3, max_freq: int = 1, amplitude: float = 1.0):
    """A list of independent random trig polynomials (one per component)."""
    return [trig_polynomial(rng, dim, n_modes, max_freq, amplitude)
            for _ in range(n_components)]

