"""Configuration grammar: parsing, echoing, overrides, density round trips."""

import numpy as np
import pytest

from ratiogan.config import (
    apply_overrides,
    density_from_section,
    density_to_section,
    train_config_from_text,
    train_config_to_text,
)
from ratiogan.densities import gaussian, mixture, ring, sample_file, uniform

BASE = """
[loss]
name = MSE

[train]
lambda = 10.0
critic_iters = 5
seed = 7

[density.target]
kind = gaussian
mean = 4.0
cov = 1.0

[density.origin]
kind = gaussian
mean = 0.0
cov = 1.0
"""


class TestParsing:
    def test_basic_fields(self):
        cfg = train_config_from_text(BASE)
        assert cfg.loss_name == "MSE"
        assert cfg.lam == 10.0
        assert cfg.critic_iters == 5
        assert cfg.seed == 7
        assert cfg.f_spec == gaussian([4.0], [[1.0]])

    def test_defaults_fill_in(self):
        cfg = train_config_from_text(BASE)
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 1e-4
        assert cfg.beta1 == 0.5 and cfg.beta2 == 0.9
        assert cfg.gen_hidden_widths == (64, 64)

    def test_unknown_keys_reported_exhaustively(self):
        text = BASE + "\n[generator]\nwidth = 3\n"
        text = text.replace("critic_iters = 5", "critic_iters = 5\nbogus = 1")
        with pytest.raises(ValueError) as err:
            train_config_from_text(text)
        msg = str(err.value)
        assert "bogus" in msg and "width" in msg

    def test_missing_sections_reported(self):
        with pytest.raises(ValueError, match=r"density.target"):
            train_config_from_text("[loss]\nname = MSE\n")

    def test_sample_file_target(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("1.0\n2.5\n4.0\n")  # median pair distance > 0: a valid config
        text = BASE.replace("kind = gaussian\nmean = 4.0\ncov = 1.0", "kind = file\npath = data.csv", 1)
        cfg = train_config_from_text(text)
        assert cfg.f_spec == sample_file("data.csv")
        assert cfg.f_spec.kind == "file" and cfg.f_spec.path == "data.csv" and cfg.f_spec.dim == 1
        np.testing.assert_array_equal(cfg.f_spec.rows, [[1.0], [2.5], [4.0]])

    def test_origin_must_be_analytic(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "z.csv").write_text("0.0\n")
        text = BASE.replace(
            "[density.origin]\nkind = gaussian\nmean = 0.0\ncov = 1.0",
            "[density.origin]\nkind = file\npath = z.csv",
        )
        with pytest.raises(ValueError, match="analytic"):
            train_config_from_text(text)


class TestDensityRoundTrips:
    @pytest.mark.parametrize(
        "spec",
        [
            gaussian([4.0], [[1.0]]),
            gaussian([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]),
            ring(8, 2.0, 0.02),
            uniform([0.0, -1.0], [1.0, 1.0]),
            mixture([(0.5, gaussian([-2.0], [[1.0]])), (0.5, gaussian([2.0], [[1.0]]))]),
            "samples.csv",
        ],
    )
    def test_to_section_and_back(self, spec, tmp_path, monkeypatch):
        if spec == "samples.csv":
            monkeypatch.chdir(tmp_path)
            (tmp_path / spec).write_text("1.0,2.0\n3.0,4.0\n")
            spec = sample_file(spec)
        assert density_from_section(density_to_section(spec)) == spec


class TestEcho:
    def test_round_trip_equality(self):
        cfg = train_config_from_text(BASE)
        echoed = train_config_to_text(cfg)
        assert train_config_from_text(echoed) == cfg

    def test_round_trip_with_every_density_kind(self):
        for section in (
            "kind = ring\nmodes = 8\nradius = 2.0\nsigma = 0.02",
            "kind = uniform\nlow = 0.0 0.0\nhigh = 1.0 1.0",
            "kind = mixture\ncomponents = 0.5 gaussian -2.0 1.0 | 0.5 gaussian 2.0 1.0",
        ):
            text = BASE.replace("kind = gaussian\nmean = 4.0\ncov = 1.0", section, 1)
            cfg = train_config_from_text(text)
            assert train_config_from_text(train_config_to_text(cfg)) == cfg

    def test_every_keyed_field_round_trips(self):
        changed = {
            "lambda": "0.5", "penalty_variant": "mean", "critic_iters": "3", "batch_size": "16",
            "learning_rate": "0.002", "beta1": "0.1", "beta2": "0.99", "total_generator_iters": "7",
            "eval_every": "3", "eval_batch": "32", "seed": "9", "checkpoint_every": "2",
        }
        text = apply_overrides(
            BASE,
            [f"train.{k}={v}" for k, v in changed.items()]
            + ["generator.hidden_widths=8, 4", "generator.hidden=relu",
               "discriminator.hidden_widths=5", "discriminator.hidden=tanh"],
        )
        cfg = train_config_from_text(text)
        assert (cfg.lam, cfg.penalty_variant, cfg.eval_batch, cfg.learning_rate) == (0.5, "mean", 32, 0.002)
        assert (cfg.gen_hidden_widths, cfg.gen_hidden) == ((8, 4), "relu")
        assert (cfg.disc_hidden_widths, cfg.disc_hidden) == ((5,), "tanh")
        echoed = train_config_to_text(cfg)
        assert "hidden_widths = 8 4" in echoed
        assert train_config_from_text(echoed) == cfg

    def test_bad_widths_reported_with_section(self):
        text = BASE + "\n[discriminator]\nhidden_widths = 8 x\n"
        with pytest.raises(ValueError, match=r"\[discriminator\] hidden_widths = '8 x' is not a valid"):
            train_config_from_text(text)


class TestOverrides:
    def test_simple_override(self):
        text = apply_overrides(BASE, ["train.lambda=0.1", "loss.name=CrossEntropy"])
        cfg = train_config_from_text(text)
        assert cfg.lam == 0.1
        assert cfg.loss_name == "CrossEntropy"

    def test_density_section_override(self):
        text = apply_overrides(BASE, ["density.target.mean=2.5"])
        cfg = train_config_from_text(text)
        assert cfg.f_spec == gaussian([2.5], [[1.0]])

    def test_malformed_override_rejected(self):
        with pytest.raises(ValueError, match="section.key=value"):
            apply_overrides(BASE, ["lambda 10"])
        with pytest.raises(ValueError, match="section-qualified"):
            apply_overrides(BASE, ["lambda=10"])

    def test_spaces_around_section_and_key_are_dropped(self):
        text = apply_overrides(BASE, [" train . lambda = 0.5"])
        assert train_config_from_text(text).lam == 0.5

    def test_density_kind_override_keeps_the_other_kinds_keys(self):
        """A key of another kind stays accepted, so an override can switch kind."""
        text = apply_overrides(BASE, ["density.target.kind=ring", "density.target.sigma=0.5"])
        assert train_config_from_text(text).f_spec == ring(8, 2.0, 0.5)

    def test_density_key_no_kind_reads_rejected(self):
        text = apply_overrides(BASE, ["density.origin.sigmma=0.5"])
        with pytest.raises(ValueError, match=r"unknown \[density.origin\] key 'sigmma'"):
            train_config_from_text(text)

    @pytest.mark.parametrize("component,problem", [
        ("0.5 gaussian 1.0", "expected 'weight gaussian <mean..> <stddev..>'"),
        ("0.5 uniform 0.0 1.0", "expected 'weight gaussian <mean..> <stddev..>'"),
        ("0.5 gaussian 0.0 1.0 2.0", "mean/stddev arity mismatch"),
    ])
    def test_malformed_mixture_component_named(self, component, problem):
        components = f"density.target.components=0.5 gaussian -2.0 1.0 | {component}"
        text = apply_overrides(BASE, ["density.target.kind=mixture", components])
        with pytest.raises(ValueError) as caught:
            train_config_from_text(text)
        assert str(caught.value) == f"mixture component {component!r}: {problem}"
