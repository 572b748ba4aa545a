"""Numerical certification of the inner/outer optimality identities."""

import json
import math

import numpy as np
import pytest

from ratiogan.catalogue import catalogue_lookup, iter_catalogue
from ratiogan.losses import concentrated, make_loss_pair, normalize_psi, OmegaTransform, REALS
from ratiogan.verify import (
    ARGMAX_TOL,
    DERIV_TOL,
    MINIMIZER_TOL,
    VALUE_TOL,
    certify,
    check_corollary_value,
    check_derivatives,
    check_theorem1,
    inner_argmax,
    reports_to_records,
    reports_to_text,
    write_reports,
)

from helpers import old_reports_to_records

INVERTIBLE = [e.loss for e in iter_catalogue() if e.loss.ratio_invertible]


class TestInnerArgmax:
    def test_mse_analytic_maximizer(self):
        """For the squared-error pair the maximizer of phi(D) + r psi(D) is D = r."""
        loss = catalogue_lookup("MSE").loss
        for r in (0.1, 0.5, 1.0, 2.0, 10.0):
            result = inner_argmax(loss, r)
            assert result.location == pytest.approx(r, abs=1e-4)

    def test_cross_entropy_at_unit_ratio(self):
        result = inner_argmax(catalogue_lookup("CrossEntropy").loss, 1.0)
        assert result.location == pytest.approx(0.5, abs=1e-4)

    def test_matches_transform_across_catalogue(self):
        for loss in INVERTIBLE:
            for r in (0.1, 0.5, 1.0, 2.0, 10.0):
                result = inner_argmax(loss, r)
                assert math.isfinite(result.location), loss.name
                expected = float(loss.omega.forward(r))
                assert result.location == pytest.approx(expected, abs=1e-4), (loss.name, r)

    def test_wasserstein_linear_objective_diverges(self):
        loss = catalogue_lookup("Wasserstein").loss
        up = inner_argmax(loss, 0.5)  # slope 1 - r > 0
        assert (up.location, up.value) == (math.inf, math.inf)
        down = inner_argmax(loss, 2.0)
        assert (down.location, down.value) == (-math.inf, math.inf)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            inner_argmax(catalogue_lookup("MSE").loss, -0.5)

    def test_derivative_only_pair(self):
        """A pair without closed forms is searched through the quadrature surrogate."""
        omega = OmegaTransform(
            forward=np.log, inverse=np.exp, range=REALS, description="log r"
        )
        pair = make_loss_pair(omega, lambda z: np.exp(-np.asarray(z, dtype=float)))
        result = inner_argmax(pair, 2.0)
        assert result.location == pytest.approx(math.log(2.0), abs=1e-4)


class TestConcentratedObjective:
    def test_mse_closed_form(self):
        loss = catalogue_lookup("MSE").loss
        assert concentrated(normalize_psi(loss), 1.0)[0] == pytest.approx(-0.5)
        # phi(omega(r)) + r psi_tilde(omega(r)) = r^2/2 - r for this pair
        for r in (0.3, 2.0, 7.0):
            assert concentrated(normalize_psi(loss), r)[0] == pytest.approx(0.5 * r**2 - r)

    def test_cross_entropy_at_one(self):
        val = concentrated(normalize_psi(catalogue_lookup("CrossEntropy").loss), 1.0)[0]
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_unit_ratio_hits_phi_at_omega_one(self):
        for loss in INVERTIBLE:
            expected = float(loss.phi(loss.omega_at_one))
            assert concentrated(normalize_psi(loss), 1.0)[0] == pytest.approx(expected, abs=1e-10), loss.name

    def test_unit_ratio_is_global_minimum(self):
        r = np.logspace(-3, 3, 301)
        for loss in INVERTIBLE:
            c = concentrated(normalize_psi(loss), r)[0]
            c1 = concentrated(normalize_psi(loss), 1.0)[0]
            assert np.all(c >= c1 - 1e-12), loss.name

    def test_slope_equals_normalized_psi(self):
        """d/dr of the concentrated objective equals psi_tilde(omega(r))."""
        for loss in INVERTIBLE:
            normalized = normalize_psi(loss)
            for r in (0.2, 0.5, 2.0, 5.0):
                h = 1e-5 * (1 + r)
                fd = (concentrated(normalized, r + h)[0] - concentrated(normalized, r - h)[0]) / (2 * h)
                expected = float(normalized.psi(loss.omega.forward(r)))
                assert fd == pytest.approx(expected, rel=1e-5), (loss.name, r)

    def test_normalized_psi_composition_increases(self):
        """psi_tilde(omega(r)) is strictly increasing in r (uniqueness driver)."""
        r = np.logspace(-3, 3, 241)
        for loss in INVERTIBLE:
            normalized = normalize_psi(loss)
            vals = np.asarray(normalized.psi(loss.range.clamp_interior(loss.omega.forward(r))))
            assert np.all(np.diff(vals) > 0.0), loss.name


class TestTheorem1Report:
    def test_all_invertible_losses_pass(self):
        for loss in INVERTIBLE:
            report = check_theorem1(loss)
            assert report.passed, [c for c in report.checks if not c.passed][:3]

    def test_outer_minimizer_refinement_near_one(self):
        for loss in INVERTIBLE:
            report = check_theorem1(loss)
            row = next(c for c in report.checks if c.check == "outer_minimizer")
            assert abs(row.observed - 1.0) <= 1e-3, loss.name

    def test_min_value_equals_phi_at_omega_one(self):
        for loss in INVERTIBLE:
            report = check_theorem1(loss)
            row = next(c for c in report.checks if c.check == "min_value")
            assert row.error <= 1e-6, loss.name

    def test_limit_losses_skip_with_reason(self):
        for name in ("Hinge", "Wasserstein"):
            report = check_theorem1(catalogue_lookup(name).loss)
            assert report.skipped and "ratio not recoverable" in report.skipped
            assert report.passed  # vacuous


class TestCorollaryValue:
    # certified saddle values, also frozen in test_catalogue
    CASES = {
        "MSE": 0.5,
        "CrossEntropy": -2.0 * math.log(2.0),
        "B1b": -1.0,
        "C2": 1.0 + math.log(0.5),
        "Hinge": -2.0,
        "Wasserstein": 0.0,
    }

    def test_numeric_maximum_matches_formula(self):
        for entry in iter_catalogue():
            report = check_corollary_value(entry.loss)
            assert report.passed, entry.loss.name
            row = report.checks[0]
            assert row.expected == pytest.approx(
                float(entry.loss.phi(entry.loss.omega_at_one) + entry.loss.psi(entry.loss.omega_at_one))
            )

    def test_frozen_values(self):
        for name, value in self.CASES.items():
            report = check_corollary_value(catalogue_lookup(name).loss)
            assert report.checks[0].observed == pytest.approx(value, abs=1e-6), name


class TestDerivativeChecks:
    def test_catalogue_closed_forms(self):
        for entry in iter_catalogue():
            report = check_derivatives(entry.loss)
            assert report.passed, entry.loss.name

    def test_check_count(self):
        report = check_derivatives(catalogue_lookup("MSE").loss)
        assert len(report.checks) == 200  # phi and psi at each point


class TestReportSerialization:
    def test_text_and_records(self, tmp_path):
        reports = [
            check_theorem1(catalogue_lookup("MSE").loss),
            check_theorem1(catalogue_lookup("Hinge").loss),
        ]
        text = reports_to_text(reports)
        assert "MSE: PASS" in text and "Hinge: SKIP" in text
        records = reports_to_records(reports)
        assert any(r.get("skipped") for r in records)
        txt = tmp_path / "rep.txt"
        jsonl = tmp_path / "rep.jsonl"
        write_reports(reports, txt, jsonl)
        assert txt.read_text() == text
        import json

        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert len(lines) == len(records)

    def test_records_equal_asdict_form_on_every_loss(self):
        """The reports of verify --loss all: records equal the first-written
        asdict form (tests/helpers.py), keys in the same order, and each is a
        fresh dict, not a view of its row."""
        reports = [report for entry in iter_catalogue() for report in certify(entry.loss)]
        records, oracle = reports_to_records(reports), old_reports_to_records(reports)
        assert len(records) > 1000
        assert records == oracle
        assert [json.dumps(r) for r in records] == [json.dumps(r) for r in oracle]
        records[0]["error"] = -1.0  # A1a's first row
        assert reports[0].checks[0].error >= 0.0


class TestCertify:
    TOLERANCES = {"inner_argmax": ARGMAX_TOL, "outer_minimizer": MINIMIZER_TOL, "min_value": VALUE_TOL,
                  "concentrated_slope": DERIV_TOL, "minmax_value": VALUE_TOL,
                  "phi_prime_fd": DERIV_TOL, "psi_prime_fd": DERIV_TOL}

    @pytest.mark.parametrize("name", ["MSE", "Hinge"])
    def test_reports_in_order(self, name):
        """Theorem 1, the saddle value, then the derivatives of a closed-form pair."""
        loss = catalogue_lookup(name).loss
        assert certify(loss) == [check_theorem1(loss), check_corollary_value(loss), check_derivatives(loss)]

    def test_derivative_only_pair_gets_no_derivative_report(self):
        omega = OmegaTransform(forward=np.log, inverse=np.exp, range=REALS, description="log r")
        pair = make_loss_pair(omega, lambda z: np.exp(-np.asarray(z, dtype=float)))
        reports = certify(pair)
        assert len(reports) == 2 and all(r.passed for r in reports)

    def test_every_row_records_the_fixed_tolerance(self):
        """One standard for every loss: each row's tol is its check's constant."""
        for entry in iter_catalogue():
            for report in certify(entry.loss):
                for row in report.checks:
                    assert row.tol == self.TOLERANCES[row.check], (entry.loss.name, row.check)
