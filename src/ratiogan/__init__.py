"""Likelihood-ratio GAN toolkit: loss construction, certification, solving, training."""

import os

# Before numpy loads: one BLAS thread unless the caller chose a count.  Small
# network products gain nothing from a second one; the eval thread uses that core.
if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .losses import (
    LossPair,
    OmegaTransform,
    RangeInterval,
    RatioNotRecoverableError,
    make_loss_pair,
    make_monotone_loss,
    normalize_psi,
    ratio_from_discriminator,
)
from .catalogue import CatalogueEntry, catalogue_lookup, catalogue_names, iter_catalogue

__version__ = "0.1.0"

__all__ = [
    "LossPair",
    "OmegaTransform",
    "RangeInterval",
    "RatioNotRecoverableError",
    "make_loss_pair",
    "make_monotone_loss",
    "normalize_psi",
    "ratio_from_discriminator",
    "CatalogueEntry",
    "catalogue_lookup",
    "catalogue_names",
    "iter_catalogue",
    "__version__",
]
