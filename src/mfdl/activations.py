"""Activation functions and their derivatives.

Five kinds are shipped: Linear, ReLU, Tanh, HardTanh, and Erf.  All are odd,
vanish at 0, and have |derivative| <= 1, so they are directly comparable
near criticality.

Conventions at non-differentiable points (measure zero under the Gaussian,
so integrals are unaffected): ReLU has derivative 0 at z = 0, HardTanh has
derivative 0 at z = +-1.

Erf is scaled as erf(sqrt(pi)*z/2) so that its slope at the origin is 1,
matching the other saturating kinds.  This normalization is a documented
choice of this package.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError

_ERF_SCALE = np.sqrt(np.pi) / 2.0


class Activation(enum.Enum):
    LINEAR = "linear"
    RELU = "relu"
    TANH = "tanh"
    HARDTANH = "hardtanh"
    ERF = "erf"

    @classmethod
    def parse(cls, name: str) -> "Activation":
        """Case-insensitive lookup, e.g. 'ReLU' -> Activation.RELU."""
        try:
            return cls(name.strip().lower())
        except (ValueError, AttributeError):
            valid = ", ".join(a.value for a in cls)
            raise ConfigError(f"unknown activation {name!r}; expected one of: {valid}")

    def value_at(self, z):
        """phi(z), elementwise on scalars or arrays."""
        z = np.asarray(z, dtype=np.float64)
        if self is Activation.LINEAR:
            out = z.copy()
        elif self is Activation.RELU:
            out = np.maximum(z, 0.0)
        elif self is Activation.TANH:
            out = np.tanh(z)
        elif self is Activation.HARDTANH:
            out = np.clip(z, -1.0, 1.0)
        else:
            # local: `import scipy.special` costs ~0.25 s and ~25 MB RSS; only Erf needs it
            from scipy.special import erf

            out = erf(_ERF_SCALE * z)
        return out if out.ndim else float(out)

    def derivative_at(self, z):
        """phi'(z) with the subgradient conventions in the module docstring."""
        z = np.asarray(z, dtype=np.float64)
        if self is Activation.LINEAR:
            out = np.ones_like(z)
        elif self is Activation.RELU:
            out = (z > 0.0).astype(np.float64)
        elif self is Activation.TANH:
            t = np.tanh(z)
            out = 1.0 - t * t
        elif self is Activation.HARDTANH:
            out = (np.abs(z) < 1.0).astype(np.float64)
        else:
            out = np.exp(-(np.pi / 4.0) * z * z)
        return out if out.ndim else float(out)

    @property
    def positively_homogeneous(self) -> bool:
        """True when phi(a*z) = a*phi(z) for a > 0 (Linear, ReLU).

        For these kinds phi' is scale invariant, so slope quantities do not
        depend on the squared-length fixed point and remain well defined even
        where the length map diverges.
        """
        return self in (Activation.LINEAR, Activation.RELU)
