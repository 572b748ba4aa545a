"""The audited thirteen-entry catalogue."""

import dataclasses
import math

import numpy as np
import pytest

from ratiogan.catalogue import catalogue_lookup, catalogue_names, iter_catalogue
from ratiogan.losses import SYMMETRIC_UNIT, probe_points
from ratiogan.nets import OUTPUT_UNITS

ALL_NAMES = [
    "A1a", "A1b", "A2", "A3", "MSE",
    "B1a", "B1b", "Exponential", "B2",
    "CrossEntropy", "C2", "Hinge", "Wasserstein",
]
INVERTIBLE = ALL_NAMES[:11]

# phi(omega(1)) + psi(omega(1)) per entry, from the closed forms
SADDLE_VALUES = {
    "A1a": -1.0,
    "A1b": -1.0,
    "A2": -4.0,
    "A3": -2.0 * math.log(2.0),
    "MSE": 0.5,
    "B1a": -1.0,
    "B1b": -1.0,
    "Exponential": -2.0,
    "B2": -2.0 * math.log(2.0),
    "CrossEntropy": -2.0 * math.log(2.0),
    "C2": 1.0 + math.log(0.5),
    "Hinge": -2.0,
    "Wasserstein": 0.0,
}


class TestCatalogueShape:
    def test_names_exact(self):
        assert catalogue_names() == ALL_NAMES

    def test_lookup_case_insensitive(self):
        assert catalogue_lookup("crossentropy").loss.name == "CrossEntropy"
        assert catalogue_lookup("WASSERSTEIN").loss.name == "Wasserstein"

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(KeyError, match="A1a.*Wasserstein"):
            catalogue_lookup("nosuch")

    def test_subclass_tags(self):
        by_subclass = {}
        for entry in iter_catalogue():
            by_subclass.setdefault(entry.subclass, []).append(entry.loss.name)
        assert by_subclass["A"] == ["A1a", "A1b", "A2", "A3", "MSE"]
        assert by_subclass["B"] == ["B1a", "B1b", "Exponential", "B2"]
        assert by_subclass["C"] == ["CrossEntropy", "C2"]
        assert by_subclass["D"] == ["Hinge", "Wasserstein"]

    def test_invertibility_flags(self):
        for entry in iter_catalogue():
            assert entry.loss.ratio_invertible == (entry.loss.name in INVERTIBLE)

    def test_every_entry_has_closed_forms_and_note(self):
        for entry in iter_catalogue():
            assert entry.loss.phi is not None and entry.loss.psi is not None
            assert entry.table_row and entry.derivation_note


class TestTableValues:
    def test_mse_forms(self):
        loss = catalogue_lookup("MSE").loss
        assert float(loss.phi(2.0)) == pytest.approx(-2.0)
        assert float(loss.psi(2.0)) == pytest.approx(2.0)
        assert loss.range.label == "[0,inf)"

    def test_cross_entropy_forms(self):
        loss = catalogue_lookup("CrossEntropy").loss
        assert float(loss.phi(0.5)) == pytest.approx(math.log(0.5))
        assert float(loss.psi(0.25)) == pytest.approx(math.log(0.25))
        assert loss.range.label == "[0,1]"

    def test_wasserstein_orientation(self):
        loss = catalogue_lookup("Wasserstein").loss
        assert float(loss.phi(1.5)) == pytest.approx(1.5)
        assert float(loss.psi(1.5)) == pytest.approx(-1.5)
        assert not loss.ratio_invertible

    def test_hinge_forms_and_kinks(self):
        loss = catalogue_lookup("Hinge").loss
        assert float(loss.phi(0.0)) == pytest.approx(-1.0)
        assert float(loss.phi(-2.0)) == 0.0
        assert float(loss.psi(2.0)) == 0.0
        # active-piece convention at the kinks
        assert float(loss.phi_prime(-1.0)) == -1.0
        assert float(loss.psi_prime(1.0)) == 1.0
        # flat pieces
        assert float(loss.phi_prime(-1.5)) == 0.0
        assert float(loss.psi_prime(1.5)) == 0.0

    def test_b1a_ships_selfconsistent_member(self):
        """The shipped B1a is phi = -e^z with psi = z (not the inconsistent e^z)."""
        loss = catalogue_lookup("B1a").loss
        assert float(loss.psi(2.0)) == pytest.approx(2.0)
        assert float(loss.phi(1.0)) == pytest.approx(-math.e)

    def test_a2_uses_square_root_transform(self):
        loss = catalogue_lookup("A2").loss
        assert float(loss.omega.forward(4.0)) == pytest.approx(2.0)
        assert float(loss.omega.inverse(2.0)) == pytest.approx(4.0)
        assert "sqrt" in catalogue_lookup("A2").derivation_note


class TestRecipeConsistency:
    def test_derivative_rule_for_invertible_entries(self):
        """phi'(z) = -omega_inverse(z) * psi'(z) within 1e-9 relative."""
        for name in INVERTIBLE:
            loss = catalogue_lookup(name).loss
            z = probe_points(loss, 200)
            lhs = np.asarray(loss.phi_prime(z), dtype=float)
            rhs = -np.asarray(loss.omega.inverse(z), dtype=float) * np.asarray(
                loss.psi_prime(z), dtype=float
            )
            scale = np.maximum(np.abs(lhs), 1e-12)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-9, name

    def test_rho_equals_psi_prime(self):
        """psi' is rho, bit for bit, at interior points, the range endpoints,
        beyond them, at the float extremes and at NaN."""
        for name in INVERTIBLE:
            loss = catalogue_lookup(name).loss
            rng = loss.range
            edges = [rng.lower, rng.upper, rng.lower - 1.0, rng.upper + 1.0]
            extremes = [0.0, -0.0, 1e-300, -1e300, 1e300, -np.inf, np.inf, np.nan]
            z = np.concatenate([probe_points(loss, 50), edges, extremes])
            with np.errstate(all="ignore"):
                assert np.array_equal(loss.rho(z), loss.psi_prime(z), equal_nan=True), name

    def test_range_and_invertibility_follow_omega(self):
        for entry in iter_catalogue():
            loss = entry.loss
            assert loss.range is loss.omega.range, loss.name
            assert loss.ratio_invertible is loss.omega.invertible, loss.name
        wass = catalogue_lookup("Wasserstein").loss
        tanh_wass = dataclasses.replace(wass, omega=dataclasses.replace(wass.omega, range=SYMMETRIC_UNIT))
        assert tanh_wass.range is SYMMETRIC_UNIT and OUTPUT_UNITS[tanh_wass.range.label] == "tanh"

    def test_values_are_the_closed_forms(self):
        for entry in iter_catalogue():
            phi, psi = entry.loss.values()
            assert phi is entry.loss.phi and psi is entry.loss.psi, entry.loss.name

    def test_psi_prime_positive_inside_range(self):
        """Strict positivity for the regular entries; the sign-limit pair is exempt."""
        for name in INVERTIBLE:
            loss = catalogue_lookup(name).loss
            z = probe_points(loss, 100)
            assert np.all(np.asarray(loss.psi_prime(z)) > 0.0), name
        hinge = catalogue_lookup("Hinge").loss
        z = np.linspace(-5, 5, 101)
        assert np.all(np.asarray(hinge.psi_prime(z)) >= 0.0)

    def test_closed_forms_match_derivatives(self):
        """Central finite differences of phi, psi reproduce the recipe derivatives."""
        for entry in iter_catalogue():
            loss = entry.loss
            z = probe_points(loss, 100)
            if not loss.ratio_invertible:
                z = z[np.minimum(np.abs(z - 1.0), np.abs(z + 1.0)) > 1e-3]
            for fn, deriv in ((loss.phi, loss.phi_prime), (loss.psi, loss.psi_prime)):
                h = 1e-6 * np.maximum(1.0, np.abs(z))
                fd = (np.asarray(fn(z + h)) - np.asarray(fn(z - h))) / (2.0 * h)
                exact = np.asarray(deriv(z), dtype=float)
                rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-12)
                assert np.max(rel) < 1e-5, loss.name


class TestSaddleConstants:
    def test_value_at_unit_ratio(self):
        """phi(omega(1)) + psi(omega(1)) equals the frozen per-entry constant."""
        for entry in iter_catalogue():
            loss = entry.loss
            z1 = loss.omega_at_one
            observed = float(loss.phi(z1) + loss.psi(z1))
            assert observed == pytest.approx(SADDLE_VALUES[loss.name], abs=1e-12), loss.name

    def test_omega_at_one(self):
        expected = {"A": 1.0, "B": 0.0, "C": 0.5, "D": 0.0}
        for entry in iter_catalogue():
            assert entry.loss.omega_at_one == pytest.approx(expected[entry.subclass])
