"""Numerical certification of the loss-family optimality identities.

For an invertible transform the pointwise maximizer of phi(D) + r*psi(D)
must sit at D = omega(r), the concentrated objective
phi(omega(r)) + r*psi_tilde(omega(r)) (``losses.concentrated`` on the
psi-normalized pair) must bottom out at r = 1 with value phi(omega(1))
and have r-slope psi_tilde(omega(r)), and the unnormalized saddle value
must equal phi(omega(1)) + psi(omega(1)).  Everything here is
independent of the derivative recipe it certifies: maxima come from grid
scans plus golden-section refinement, minima from a log-spaced sweep
with quadratic refinement, derivatives from central finite differences.
Each check is a row whose error is |observed - expected| over a scale:
1 for the absolute checks, max(|expected|, 1e-12) for the relative ones.

``certify(loss)`` checks a loss at one fixed standard, recorded in each row's ``tol``; the first
four rows (``check_theorem1``) are for invertible losses only, the last for closed forms only:

    inner_argmax        r in R_GRID; 1024-point scan, golden section  1e-4
    outer_minimizer     601 log-spaced r in [1e-3, 1e3], refined       1e-3
    min_value           phi(omega(1)) at the refined minimizer         1e-6
    concentrated_slope  24 log-spaced r in [0.2, 5] off 1, relative    1e-5
    minmax_value        inner maximum at r = 1, raw psi                1e-6
    phi/psi_prime_fd    100 probe points each, relative                1e-5
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .losses import LossPair, concentrated, normalize_psi, probe_points

__all__ = [
    "CheckRow",
    "VerificationReport",
    "InnerMax",
    "inner_argmax",
    "check_theorem1",
    "check_corollary_value",
    "check_derivatives",
    "certify",
    "reports_to_text",
    "reports_to_records",
    "write_reports",
]

# The certificate's standard, one for every loss: the table above.
ARGMAX_TOL, MINIMIZER_TOL, VALUE_TOL, DERIV_TOL = 1e-4, 1e-3, 1e-6, 1e-5
R_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)  # ratios of the inner-maximizer check
ARGMAX_SCAN, SWEEP_POINTS, SLOPE_PROBES, DERIV_PROBES = 1024, 601, 25, 100  # probe sizes

# Probe window for unbounded range ends (pre-squash scale).
UNBOUNDED_PROBE = 30.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CheckRow:
    check: str
    probe: float
    expected: float
    observed: float
    error: float
    tol: float
    passed: bool


@dataclass
class VerificationReport:
    loss_name: str
    checks: list = field(default_factory=list)
    skipped: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.checks)

    def add(self, check, probe, expected, observed, tol, scale=1.0):
        """Append a row whose error is |observed - expected| / scale."""
        expected, observed = float(expected), float(observed)
        err = abs(observed - expected) / scale
        self.checks.append(CheckRow(check, float(probe), expected, observed, err, tol, err <= tol))


@dataclass(frozen=True)
class InnerMax:
    """Pointwise maximum over the discriminator value; at an unbounded range end, location -inf or +inf and value +inf."""

    location: float
    value: float


def _golden_max(f, a: float, b: float) -> float:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-8:  # bracket width
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def inner_argmax(loss: LossPair, r: float) -> InnerMax:
    """Maximize phi(D) + r*psi(D) over the loss range.

    Coarse scan on ARGMAX_SCAN points over the clamped interior, then
    golden-section refinement between the best point's neighbours.  An
    objective climbing into an unbounded range end is reported as a
    maximum at infinity rather than raised.
    """
    if r < 0:
        raise ValueError(f"ratio value must be nonnegative, got {r}")
    phi_v, psi_v = loss.values()
    lo, hi = loss.range.clamp_interior(np.array([-UNBOUNDED_PROBE, UNBOUNDED_PROBE]))
    grid = np.linspace(lo, hi, ARGMAX_SCAN)
    vals = np.asarray(phi_v(grid), dtype=float) + r * np.asarray(psi_v(grid), dtype=float)
    k = int(np.argmax(vals))

    if k == 0 and not math.isfinite(loss.range.lower) and vals[0] > vals[1]:
        return InnerMax(location=-math.inf, value=math.inf)
    if k == ARGMAX_SCAN - 1 and not math.isfinite(loss.range.upper) and vals[-1] > vals[-2]:
        return InnerMax(location=math.inf, value=math.inf)

    def f(d):
        return float(phi_v(d) + r * psi_v(d))

    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, ARGMAX_SCAN - 1)]
    d_hat = _golden_max(f, float(a), float(b))
    return InnerMax(location=d_hat, value=f(d_hat))


def _quadratic_vertex(u: np.ndarray, c: np.ndarray, j: int) -> float:
    if j == 0 or j == len(u) - 1:
        return float(u[j])
    h = u[1] - u[0]
    denom = c[j - 1] - 2.0 * c[j] + c[j + 1]
    if denom <= 0:
        return float(u[j])
    return float(u[j] + 0.5 * h * (c[j - 1] - c[j + 1]) / denom)


def check_theorem1(loss: LossPair) -> VerificationReport:
    """Certify the inner maximizer, outer minimizer, and slope identity.

    Non-invertible losses get a skipped report: without the inverse
    transform the maximizer identity has no reference value.
    """
    report = VerificationReport(loss_name=loss.name)
    if not loss.ratio_invertible:
        report.skipped = "skipped: ratio not recoverable for sign-limit losses"
        return report

    for r in R_GRID:
        report.add("inner_argmax", r, float(loss.omega.forward(r)), inner_argmax(loss, r).location, ARGMAX_TOL)

    normalized = normalize_psi(loss)  # the concentrated objective: smallest, phi(omega(1)), at r = 1
    u = np.linspace(-3.0, 3.0, SWEEP_POINTS)  # the outer sweep: log10 of ratios in [1e-3, 1e3]
    c = concentrated(normalized, 10.0**u)[0]
    j = int(np.argmin(c))
    r_star = 10.0 ** _quadratic_vertex(u, c, j)
    report.add("outer_minimizer", 1.0, 1.0, r_star, MINIMIZER_TOL)

    value_ref = float(loss.values()[0](loss.omega_at_one))
    min_observed = min(float(c[j]), float(concentrated(normalized, r_star)[0]))
    report.add("min_value", 1.0, value_ref, min_observed, VALUE_TOL)

    # d/dr of the concentrated objective must equal psi_tilde(omega(r)).
    for r in np.logspace(math.log10(0.2), math.log10(5.0), SLOPE_PROBES):
        if abs(r - 1.0) < 0.05:
            continue  # slope crosses zero at r = 1; relative error undefined
        h = 1e-5 * (1.0 + r)
        fd = (concentrated(normalized, r + h)[0] - concentrated(normalized, r - h)[0]) / (2 * h)
        expected = float(concentrated(normalized, r)[1])
        report.add("concentrated_slope", r, expected, fd, DERIV_TOL, scale=max(abs(expected), 1e-12))
    return report


def check_corollary_value(loss: LossPair) -> VerificationReport:
    """Certify the unnormalized saddle value phi(omega(1)) + psi(omega(1)).

    The observed side maximizes phi(D) + psi(D) numerically (the inner
    problem at unit ratio, raw psi), so the check is not circular.
    """
    report = VerificationReport(loss_name=loss.name)
    phi_v, psi_v = loss.values()
    z1 = loss.omega_at_one
    report.add("minmax_value", 1.0, float(phi_v(z1) + psi_v(z1)), inner_argmax(loss, 1.0).value, VALUE_TOL)
    return report


def check_derivatives(loss: LossPair) -> VerificationReport:
    """Central finite differences of phi and psi against the recipe derivatives."""
    report = VerificationReport(loss_name=loss.name)
    phi_v, psi_v = loss.values()
    z_pts = probe_points(loss, DERIV_PROBES)
    if not loss.ratio_invertible:
        # Piecewise-linear losses: skip the kink neighbourhoods.
        z_pts = z_pts[np.minimum(np.abs(z_pts - 1.0), np.abs(z_pts + 1.0)) > 1e-3]

    for fn, deriv, tag in ((phi_v, loss.phi_prime, "phi"), (psi_v, loss.psi_prime, "psi")):
        for z in z_pts:
            h = 1e-6 * max(1.0, abs(z))
            fd = (float(fn(z + h)) - float(fn(z - h))) / (2.0 * h)
            exact = float(deriv(z))
            report.add(f"{tag}_prime_fd", z, exact, fd, DERIV_TOL, scale=max(abs(exact), 1e-12))
    return report


def certify(loss: LossPair) -> list:
    """A loss's one certificate, its reports in the order verify writes them: Theorem 1,
    the saddle value, and the derivatives when the loss has both closed forms."""
    reports = [check_theorem1(loss), check_corollary_value(loss)]
    if loss.phi is not None and loss.psi is not None:
        reports.append(check_derivatives(loss))
    return reports


# ---------------------------------------------------------------------------
# Report serialization


def reports_to_text(reports: Sequence[VerificationReport]) -> str:
    lines = []
    for rep in reports:
        status = "SKIP" if rep.skipped else ("PASS" if rep.passed else "FAIL")
        lines.append(f"== {rep.loss_name}: {status}" + (f" ({rep.skipped})" if rep.skipped else ""))
        for row in rep.checks:
            lines.append(
                f"  {row.check:<20s} probe={row.probe:<12.6g} expected={row.expected:<14.8g} "
                f"observed={row.observed:<14.8g} err={row.error:.3e} tol={row.tol:.1e} "
                f"{'ok' if row.passed else 'FAIL'}"
            )
    return "\n".join(lines) + "\n"


def reports_to_records(reports: Sequence[VerificationReport]) -> list:
    records = []
    for rep in reports:
        if rep.skipped:
            records.append({"loss": rep.loss_name, "check": "all", "skipped": rep.skipped})
            continue
        records.extend({"loss": rep.loss_name, **vars(row)} for row in rep.checks)  # scalars: no deep copy
    return records


def write_reports(reports: Sequence[VerificationReport], text_path, jsonl_path) -> str:
    """Write the line-oriented table and the one-record-per-check file;
    return the table's text."""
    text = reports_to_text(reports)
    with open(text_path, "w") as fh:
        fh.write(text)
    with open(jsonl_path, "w") as fh:
        for record in reports_to_records(reports):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return text
