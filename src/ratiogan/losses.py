"""Loss-pair construction from likelihood-ratio transforms.

A loss pair (phi, psi) is generated from a strictly increasing transform
``omega`` of the nonnegative ratio r and a positive weight ``rho`` on
omega's range J:

    phi'(z) = -omega_inverse(z) * rho(z),      psi'(z) = rho(z)

``LossPair`` derives both from (omega, rho) unless they are given.
Gradient-based training only ever needs these derivatives; closed forms
for phi and psi are optional and carried when known.  The discriminator
that maximizes phi(D) + r*psi(D) pointwise is D = omega(r), so an
invertible omega lets the trained discriminator be read back as a ratio
estimate.  ``concentrated`` evaluates the cost at that optimum,
phi(omega(r)) + r*psi(omega(r)), with its r-slope psi(omega(r)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "RangeInterval",
    "NONNEGATIVE",
    "UNIT",
    "REALS",
    "SYMMETRIC_UNIT",
    "CANONICAL_RANGES",
    "OmegaTransform",
    "LossPair",
    "RatioNotRecoverableError",
    "concentrated",
    "make_loss_pair",
    "make_monotone_loss",
    "normalize_psi",
    "ratio_from_discriminator",
    "antiderivative_from",
    "probe_points",
]

# Absolute clamp distance from bounded range endpoints; several catalogue
# losses have singular derivatives exactly at the endpoints.
INTERIOR_EPS = 1e-6

# Documented monotonicity probe: 61 log-spaced ratios over six decades.
OMEGA_PROBE = np.logspace(-3.0, 3.0, 61)


@dataclass(frozen=True)
class RangeInterval:
    """An interval of discriminator outputs: a finite end belongs to it,
    an infinite end does not."""

    lower: float
    upper: float
    label: str

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"empty range: [{self.lower}, {self.upper}]")

    def contains(self, z) -> bool:
        return bool(np.all(np.isfinite(z) & (z >= self.lower) & (z <= self.upper)))

    def clamp_interior(self, z):
        """Clamp z to INTERIOR_EPS inside each finite end.  Two ufuncs, not
        np.clip's costlier Python wrapper: NaN passes through, and with no
        signed-zero end (none on a canonical range) it is np.clip bit for bit."""
        return np.minimum(np.maximum(z, self.lower + INTERIOR_EPS), self.upper - INTERIOR_EPS)

    def __str__(self):
        return self.label


NONNEGATIVE = RangeInterval(0.0, math.inf, "[0,inf)")
UNIT = RangeInterval(0.0, 1.0, "[0,1]")
REALS = RangeInterval(-math.inf, math.inf, "R")
SYMMETRIC_UNIT = RangeInterval(-1.0, 1.0, "[-1,1]")

CANONICAL_RANGES = (NONNEGATIVE, UNIT, REALS, SYMMETRIC_UNIT)


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class OmegaTransform:
    """Strictly increasing transform of the nonnegative likelihood ratio;
    a sign-limit transform has no inverse."""

    forward: Callable
    inverse: Optional[Callable]
    range: RangeInterval
    description: str = ""

    @property
    def invertible(self) -> bool:
        return self.inverse is not None

    def validate(self, probe: np.ndarray = OMEGA_PROBE) -> None:
        """Check strict increase (and inverse round-trip) on the probe grid.

        Sharp transforms saturate to finite range endpoints in float64
        (and the interior clamp hides the last digits there), so points
        within twice the clamp distance of a finite endpoint are exempt
        from the strictness and round-trip checks.
        """
        vals = np.asarray([float(self.forward(r)) for r in probe])
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"omega not finite on probe grid: {self.description}")

        saturated = np.zeros(len(vals), dtype=bool)
        for bound in (self.range.lower, self.range.upper):
            if math.isfinite(bound):
                saturated |= np.abs(vals - bound) < 2.0 * INTERIOR_EPS
        flat_ok = saturated[:-1] & saturated[1:]
        if not np.all((np.diff(vals) > 0.0) | flat_ok):
            raise ValueError(
                f"omega is not strictly increasing on the probe grid: "
                f"{self.description or 'unnamed transform'}"
            )
        z1 = float(self.forward(1.0))
        if not self.range.contains(z1):
            raise ValueError(f"omega(1)={z1} outside declared range {self.range}")
        if self.invertible:
            live = ~saturated
            rt = np.asarray([float(self.inverse(v)) for v in vals[live]])
            rel = np.abs(rt - probe[live]) / probe[live]
            if rel.size and rel.max() > 1e-9:
                raise ValueError(
                    f"inverse round-trip error {rel.max():.3e} exceeds 1e-9: "
                    f"{self.description}"
                )


class RatioNotRecoverableError(ValueError):
    """Raised when a loss does not expose an invertible ratio transform."""


@dataclass(frozen=True)
class LossPair:
    """A (phi, psi) pair, represented primarily by its derivatives.

    The range and the ratio readback follow omega.  Given rho, a missing
    psi' is rho on the clamped interior of the range and a missing phi'
    is -omega_inverse * rho there; the sign-limit losses (Hinge,
    Wasserstein) have no rho and pass both derivatives, and their psi'
    may vanish or, for the shipped Wasserstein orientation, flip sign.
    ``phi``/``psi`` are optional: constructed pairs are derivative-only,
    catalogue entries carry the known closed forms.
    """

    name: str
    omega: OmegaTransform
    phi_prime: Optional[Callable] = None
    psi_prime: Optional[Callable] = None
    phi: Optional[Callable] = None
    psi: Optional[Callable] = None
    rho: Optional[Callable] = None

    def __post_init__(self):
        rho, clamp = self.rho, self.omega.range.clamp_interior
        if self.psi_prime is None:
            if rho is None:
                raise ValueError(f"{self.name}: psi' needs rho")
            object.__setattr__(self, "psi_prime", lambda z: rho(clamp(z)))
        if self.phi_prime is None:
            if rho is None or self.omega.inverse is None:
                raise ValueError(f"{self.name}: phi' needs rho and an inverse omega")
            inverse = self.omega.inverse

            def phi_prime(z):
                zc = clamp(z)
                return -inverse(zc) * rho(zc)

            object.__setattr__(self, "phi_prime", phi_prime)

    @property
    def range(self) -> RangeInterval:
        return self.omega.range

    @property
    def ratio_invertible(self) -> bool:
        return self.omega.invertible

    @property
    def omega_at_one(self) -> float:
        """Discriminator value at the matched-density solution r = 1."""
        return float(self.omega.forward(1.0))

    def values(self) -> tuple:
        """(phi, psi) as callables: the closed forms, or for a missing one
        the quadrature surrogate of its derivative anchored at omega(1)."""
        if self.phi is not None and self.psi is not None:
            return self.phi, self.psi
        z1 = self.omega_at_one
        phi = self.phi if self.phi is not None else antiderivative_from(self.phi_prime, z1)
        psi = self.psi if self.psi is not None else antiderivative_from(self.psi_prime, z1)
        return phi, psi


def concentrated(loss: LossPair, r) -> tuple:
    """The cost phi(z) + r*psi(z) at the inner optimum z = omega(r) (clamped
    to the range interior), and its r-slope psi(z), elementwise in r.

    Pass ``normalize_psi(loss)`` for the normalized cost, which is smallest
    at r = 1; with the raw psi, r = 1 gives the saddle value.
    """
    phi, psi = loss.values()
    z = loss.range.clamp_interior(loss.omega.forward(r))
    slope = np.asarray(psi(z), dtype=float)
    return np.asarray(phi(z), dtype=float) + r * slope, slope


def probe_points(loss: LossPair, n: int = 200) -> np.ndarray:
    """Interior probe grid in discriminator space.

    Images of log-spaced ratios under omega, so the points are interior
    for every canonical range; limit losses fall back to a plain grid.
    """
    if loss.ratio_invertible:
        r = np.logspace(-3.0, 3.0, n)
        z = np.asarray([float(loss.omega.forward(v)) for v in r])
        return loss.range.clamp_interior(z)
    return np.linspace(-5.0, 5.0, n)


# Tanh-sinh rule on [-1, 1] (Takahasi & Mori 1974): nodes tanh(u_k),
# u_k = pi/2 sinh(k/32) for |k/32| <= 6, packed densely at both ends, where a
# clamped weight such as z^-2 or 1/(1-z) spikes.  A node is placed by its
# distance e^-|u|/cosh(u) from the nearer end, which keeps its digits where
# 1 - tanh(u) would round to 0.
_TS_T = np.arange(-192, 193) / 32.0
_TS_U = 0.5 * np.pi * np.sinh(_TS_T)
_TS_GAP = np.exp(-np.abs(_TS_U)) / np.cosh(_TS_U)
_TS_WEIGHT = (np.pi / 64.0) * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2
_TS_CHUNK = 512  # points per deriv call, so a call holds 512 x 385 nodes


def antiderivative_from(deriv: Callable, anchor: float) -> Callable:
    """Antiderivative of ``deriv`` vanishing at ``anchor``: one tanh-sinh
    rule over [anchor, z], with ``deriv`` applied elementwise to the nodes
    of many points z at once.  A NaN or infinite z gives NaN.

    Used as the closed-form surrogate for derivative-only pairs.
    """

    def F(z):
        arr = np.asarray(z, dtype=float)
        flat = arr.ravel()
        out = np.full(flat.shape, np.nan)
        live = np.flatnonzero(np.isfinite(flat))
        for k in range(0, len(live), _TS_CHUNK):
            rows = live[k : k + _TS_CHUNK]
            ends = flat[rows, None]
            half = 0.5 * (ends - anchor)
            nodes = np.where(_TS_T < 0.0, anchor + half * _TS_GAP, ends - half * _TS_GAP)
            # summed row by row: a point's value does not depend on its chunk
            out[rows] = half[:, 0] * np.sum(deriv(nodes) * _TS_WEIGHT, axis=-1)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return F


def make_loss_pair(omega: OmegaTransform, rho: Callable, name: str = "custom") -> LossPair:
    """Build the derivative-only loss pair generated by (omega, rho).

    Raises if omega fails the monotonicity probe or rho is not strictly
    positive at the interior probe points of omega's range.
    """
    omega.validate()
    if not omega.invertible:
        raise ValueError(
            "make_loss_pair requires an invertible omega; "
            "limit losses are constructed separately"
        )

    z_probe = omega.range.clamp_interior(
        np.asarray([float(omega.forward(r)) for r in OMEGA_PROBE])
    )
    rho_vals = np.asarray([float(rho(z)) for z in z_probe])
    if not np.all(np.isfinite(rho_vals)) or np.any(rho_vals <= 0.0):
        bad = z_probe[~(np.isfinite(rho_vals) & (rho_vals > 0.0))][0]
        raise ValueError(f"rho must be strictly positive on the range; rho({bad}) <= 0")

    return LossPair(name=name, omega=omega, rho=rho)


def make_monotone_loss(c: float, rho: Callable, name: Optional[str] = None) -> LossPair:
    """Loss pair for the smooth sign-like transform (r^c - 1)/(r^c + 1).

    The transform tends to sign(log r) as c grows; for finite c it is
    strictly increasing with range [-1, 1] and inverse
    ((1 + z)/(1 - z))^(1/c).
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be a positive finite real, got {c}")

    def forward(r):
        rc = np.asarray(r, dtype=float) ** c
        return (rc - 1.0) / (rc + 1.0)

    def inverse(z):
        zc = SYMMETRIC_UNIT.clamp_interior(z)
        return ((1.0 + zc) / (1.0 - zc)) ** (1.0 / c)

    omega = OmegaTransform(
        forward=forward,
        inverse=inverse,
        range=SYMMETRIC_UNIT,
        description=f"(r^{c} - 1)/(r^{c} + 1)",
    )
    return make_loss_pair(omega, rho, name=name or f"monotone(c={c:g})")


def normalize_psi(loss: LossPair) -> LossPair:
    """Shift psi so the normalized copy vanishes at omega(1).

    Derivatives are untouched.  Pairs without a closed-form psi get the
    quadrature surrogate of ``LossPair.values``, which is anchored at
    omega(1) and so is the normalized psi directly.
    """
    if loss.psi is None:
        return replace(loss, psi=loss.values()[1])
    shift = float(loss.psi(loss.omega_at_one))
    if shift == 0.0:
        return loss
    return replace(loss, psi=lambda z, _b=loss.psi, _s=shift: _b(z) - _s)


def ratio_from_discriminator(loss: LossPair, d):
    """Map discriminator output(s) back to likelihood-ratio estimate(s).

    Outputs must be finite and inside the loss range; they are clamped to
    its interior before the inverse transform is applied.
    """
    if not loss.ratio_invertible:
        raise RatioNotRecoverableError(
            f"ratio not recoverable: {loss.name} uses a sign-limit transform "
            f"whose inverse does not exist"
        )
    d = np.asarray(d, dtype=float)
    if not np.isfinite(d).all():
        raise ValueError("non-finite discriminator output")
    if not loss.range.contains(d):
        raise ValueError(f"discriminator output outside {loss.range}")
    out = loss.omega.inverse(loss.range.clamp_interior(d))
    return float(out) if np.ndim(d) == 0 else out
