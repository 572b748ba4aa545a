"""The audited catalogue of named loss pairs.

Thirteen rows.  Each of the eleven invertible rows gives its generating
(omega, rho) pair, the closed forms phi and psi, and phi' by hand; the
rows share five omega transforms, and ``LossPair`` derives psi' = rho
(on the clamped interior), the range and invertibility from omega.
phi' is written out as the numerically stable closed form of
-omega_inverse * rho: the product itself loses last bits on most rows
and fails for large |z| (for B2, -e^z * sigmoid(-z) is -0 from z = 38
and NaN from z = 710, where phi' is -1).  The two sign-limit rows have no rho and
give both derivatives.  Three widely circulated rows fail the derivative
rule as printed; the corrected, self-consistent forms are shipped and the
applied correction is recorded in the entry's derivation note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (
    NONNEGATIVE,
    REALS,
    UNIT,
    LossPair,
    OmegaTransform,
    _sigmoid,
)

__all__ = ["CatalogueEntry", "catalogue_lookup", "catalogue_names", "iter_catalogue"]


@dataclass(frozen=True)
class CatalogueEntry:
    loss: LossPair
    subclass: str
    table_row: str
    derivation_note: str


_in_pos = NONNEGATIVE.clamp_interior
_in_unit = UNIT.clamp_interior


_OMEGA_IDENTITY = OmegaTransform(
    forward=lambda r: np.asarray(r, dtype=float),
    inverse=_in_pos,
    range=NONNEGATIVE,
    description="r",
)
_OMEGA_SQRT = OmegaTransform(
    forward=lambda r: np.sqrt(np.asarray(r, dtype=float)),
    inverse=lambda z: _in_pos(z) ** 2,
    range=NONNEGATIVE,
    description="sqrt(r)",
)
_OMEGA_LOG = OmegaTransform(
    forward=lambda r: np.log(np.asarray(r, dtype=float)),
    inverse=np.exp,
    range=REALS,
    description="log(r)",
)
_OMEGA_POSTERIOR = OmegaTransform(
    forward=lambda r: np.asarray(r, dtype=float) / (1.0 + np.asarray(r, dtype=float)),
    inverse=lambda z: _in_unit(z) / (1.0 - _in_unit(z)),
    range=UNIT,
    description="r/(1+r)",
)
# Limit of strictly increasing approximations; it has no inverse.
_OMEGA_SIGN_LIMIT = OmegaTransform(
    forward=lambda r: np.sign(np.log(np.maximum(np.asarray(r, dtype=float), 1e-300))),
    inverse=None,
    range=REALS,
    description="sign(log r) (limit)",
)


def _build_catalogue() -> dict:
    entries = {}

    def add(subclass, loss, table_row, note):
        entries[loss.name.lower()] = CatalogueEntry(
            loss=loss, subclass=subclass, table_row=table_row, derivation_note=note
        )

    # ---- Subclass A: omega(r) = r^alpha -------------------------------
    # The inverse ratio readback is r = D^(1/alpha); a printed inversion
    # r = D^(-alpha) circulates but contradicts omega itself and is
    # treated as a sign typo.
    add(
        "A",
        LossPair(
            name="A1a",
            phi=lambda z: -np.asarray(z, dtype=float),
            phi_prime=lambda z: -np.ones_like(np.asarray(z, dtype=float)),
            psi=lambda z: np.log(_in_pos(z)),
            rho=lambda z: 1.0 / _in_pos(z),
            omega=_OMEGA_IDENTITY,
        ),
        "phi = -z, psi = log z, J = [0,inf)",
        "omega(r) = r, rho(z) = 1/z (power-weight exponent -1).",
    )
    add(
        "A",
        LossPair(
            name="A1b",
            phi=lambda z: -np.log(_in_pos(z)),
            phi_prime=lambda z: -1.0 / _in_pos(z),
            psi=lambda z: -1.0 / _in_pos(z),
            rho=lambda z: _in_pos(z) ** -2,
            omega=_OMEGA_IDENTITY,
        ),
        "phi = -log z, psi = -1/z, J = [0,inf)",
        "omega(r) = r, rho(z) = z^-2 (power-weight exponent -2).",
    )
    add(
        "A",
        LossPair(
            name="A2",
            phi=lambda z: -(1.0 + np.asarray(z, dtype=float)),
            phi_prime=lambda z: -np.ones_like(np.asarray(z, dtype=float)),
            psi=lambda z: -(1.0 + 1.0 / _in_pos(z)),
            rho=lambda z: _in_pos(z) ** -2,
            omega=_OMEGA_SQRT,
        ),
        "phi = -(1+z), psi = -(1+1/z), J = [0,inf)",
        "omega(r) = sqrt(r), rho(z) = z^-2; these forms satisfy the "
        "derivative rule only for the square-root transform (a linear "
        "omega with rho = 1/(1+z) is sometimes claimed but yields "
        "different closed forms), so the ratio readback is r = D^2.",
    )
    add(
        "A",
        LossPair(
            name="A3",
            phi=lambda z: -np.log1p(np.asarray(z, dtype=float)),
            phi_prime=lambda z: -1.0 / (1.0 + np.asarray(z, dtype=float)),
            psi=lambda z: np.log(_in_pos(z)) - np.log1p(_in_pos(z)),
            rho=lambda z: 1.0 / (_in_pos(z) * (1.0 + _in_pos(z))),
            omega=_OMEGA_IDENTITY,
        ),
        "phi = -log(1+z), psi = -log(1+1/z), J = [0,inf)",
        "omega(r) = r, rho(z) = 1/(z(1+z)).",
    )
    add(
        "A",
        LossPair(
            name="MSE",
            phi=lambda z: -0.5 * np.asarray(z, dtype=float) ** 2,
            phi_prime=lambda z: -np.asarray(z, dtype=float),
            psi=lambda z: np.asarray(z, dtype=float),
            rho=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            omega=_OMEGA_IDENTITY,
        ),
        "phi = -z^2/2, psi = z, J = [0,inf)",
        "omega(r) = r, rho(z) = 1; the discriminator estimates the ratio itself.",
    )

    # ---- Subclass B: omega(r) = log(r)/alpha, ratio readback r = e^(alpha D)
    add(
        "B",
        LossPair(
            name="B1a",
            phi=lambda z: -np.exp(np.asarray(z, dtype=float)),
            phi_prime=lambda z: -np.exp(np.asarray(z, dtype=float)),
            psi=lambda z: np.asarray(z, dtype=float),
            rho=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            omega=_OMEGA_LOG,
        ),
        "phi = -e^z, psi = z, J = R",
        "omega(r) = log r, rho(z) = 1 (exponential weight at decay 0). "
        "A published variant prints psi = e^z, which fails the derivative "
        "rule for every log base; the self-consistent decay-0 member is shipped.",
    )
    add(
        "B",
        LossPair(
            name="B1b",
            phi=lambda z: -np.asarray(z, dtype=float),
            phi_prime=lambda z: -np.ones_like(np.asarray(z, dtype=float)),
            psi=lambda z: -np.exp(-np.asarray(z, dtype=float)),
            rho=lambda z: np.exp(-np.asarray(z, dtype=float)),
            omega=_OMEGA_LOG,
        ),
        "phi = -z, psi = -e^-z, J = R",
        "omega(r) = log r, rho(z) = e^-z (exponential weight at decay 1).",
    )
    add(
        "B",
        LossPair(
            name="Exponential",
            phi=lambda z: -np.exp(0.5 * np.asarray(z, dtype=float)),
            phi_prime=lambda z: -0.5 * np.exp(0.5 * np.asarray(z, dtype=float)),
            psi=lambda z: -np.exp(-0.5 * np.asarray(z, dtype=float)),
            rho=lambda z: 0.5 * np.exp(-0.5 * np.asarray(z, dtype=float)),
            omega=_OMEGA_LOG,
        ),
        "phi = -e^(z/2), psi = -e^(-z/2), J = R",
        "omega(r) = log r, rho(z) = e^(-z/2)/2: the decay-1/2 exponential "
        "member with rho scaled by the admissible positive constant 1/2, "
        "matching the catalogued closed forms.",
    )
    add(
        "B",
        LossPair(
            name="B2",
            phi=lambda z: -np.logaddexp(0.0, np.asarray(z, dtype=float)),
            phi_prime=lambda z: -_sigmoid(z),
            psi=lambda z: -np.logaddexp(0.0, -np.asarray(z, dtype=float)),
            rho=lambda z: _sigmoid(-np.asarray(z, dtype=float)),
            omega=_OMEGA_LOG,
        ),
        "phi = -log(1+e^z), psi = -log(1+e^-z), J = R",
        "omega(r) = log r, rho(z) = 1/(1+e^z).",
    )

    # ---- Subclass C: omega(r) = r/(1+r), ratio readback r = D/(1-D) ----
    add(
        "C",
        LossPair(
            name="CrossEntropy",
            phi=lambda z: np.log1p(-_in_unit(z)),
            phi_prime=lambda z: -1.0 / (1.0 - _in_unit(z)),
            psi=lambda z: np.log(_in_unit(z)),
            rho=lambda z: 1.0 / _in_unit(z),
            omega=_OMEGA_POSTERIOR,
        ),
        "phi = log(1-z), psi = log z, J = [0,1]",
        "omega(r) = r/(1+r), rho(z) = 1/z; the discriminator estimates the "
        "posterior probability of the generated class.",
    )
    add(
        "C",
        LossPair(
            name="C2",
            phi=lambda z: _in_unit(z) + np.log1p(-_in_unit(z)),
            phi_prime=lambda z: -_in_unit(z) / (1.0 - _in_unit(z)),
            psi=lambda z: np.asarray(z, dtype=float),
            rho=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            omega=_OMEGA_POSTERIOR,
        ),
        "phi = z + log(1-z), psi = z, J = [0,1]",
        "omega(r) = r/(1+r), rho(z) = 1 (the exponent-0 member of the "
        "(1-z)^a weight family).",
    )

    # ---- Sign-limit losses: omega -> sign(log r), ratio not recoverable
    add(
        "D",
        LossPair(
            name="Hinge",
            phi=lambda z: -np.maximum(1.0 + np.asarray(z, dtype=float), 0.0),
            # Kink convention: one-sided slope from the active (non-flat) piece.
            phi_prime=lambda z: np.where(np.asarray(z, dtype=float) >= -1.0, -1.0, 0.0),
            psi=lambda z: -np.maximum(1.0 - np.asarray(z, dtype=float), 0.0),
            psi_prime=lambda z: np.where(np.asarray(z, dtype=float) <= 1.0, 1.0, 0.0),
            omega=_OMEGA_SIGN_LIMIT,
        ),
        "phi = -max(1+z, 0), psi = -max(1-z, 0), J = R",
        "limit of omega(r) = sign(log r)|log r|^(1/c) as c grows; the "
        "derivatives become indicator functions and the inverse transform "
        "is lost, so no ratio readback exists.",
    )
    add(
        "D",
        LossPair(
            name="Wasserstein",
            phi=lambda z: np.asarray(z, dtype=float),
            phi_prime=lambda z: np.ones_like(np.asarray(z, dtype=float)),
            psi=lambda z: -np.asarray(z, dtype=float),
            psi_prime=lambda z: -np.ones_like(np.asarray(z, dtype=float)),
            omega=_OMEGA_SIGN_LIMIT,
        ),
        "phi = z, psi = -z, J = R",
        "limit of the smooth sign approximation (r^c-1)/(r^c+1); shipped in "
        "the orientation maximizing mean D on target minus mean D on "
        "generated samples.  The sign-flipped pair phi = -z, psi = z is the "
        "same objective under D -> -D; with this orientation psi' = -1, the "
        "one catalogue exception to psi' >= 0.",
    )

    return entries


_CATALOGUE = _build_catalogue()


def catalogue_names() -> list:
    """The thirteen catalogue names in canonical order."""
    return [entry.loss.name for entry in _CATALOGUE.values()]


def catalogue_lookup(name: str) -> CatalogueEntry:
    """Look up a catalogue entry by (case-insensitive) name."""
    try:
        return _CATALOGUE[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown loss {name!r}; valid names: {', '.join(catalogue_names())}"
        ) from None


def iter_catalogue():
    """Yield entries in canonical order."""
    yield from _CATALOGUE.values()
