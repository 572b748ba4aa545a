"""Flat key = value configuration grammar with one section per module.

The CLI reads this format, applies flag overrides, and can echo the
effective configuration back out; an echoed file re-parses to an equal
configuration (floats are written with shortest round-trip formatting).

    [loss]
    name = MSE

    [train]
    lambda = 10.0
    critic_iters = 5
    ...

    [density.target]
    kind = gaussian
    mean = 4.0
    cov = 1.0

    [density.origin]
    kind = gaussian
    mean = 0.0
    cov = 1.0

Density kinds: gaussian (mean, cov: scalar, diagonal, or ';'-separated
rows), ring (modes, radius, sigma), uniform (low, high), mixture
(components = weight gaussian <mean..> <diag-stddevs..> | ...), file
(path = samples.csv).
"""

from __future__ import annotations

import configparser
import io
from typing import Union

import numpy as np

from .densities import DensitySpec, gaussian, mixture, ring, uniform
from .training import TrainConfig

__all__ = [
    "parse_config_text",
    "train_config_from_text",
    "train_config_to_text",
    "density_from_section",
    "density_to_section",
    "apply_overrides",
]


def _floats(text: str) -> list:
    return [float(v) for v in text.replace(",", " ").split()]


def parse_config_text(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return parser


def density_from_section(section) -> Union[DensitySpec, str]:
    kind = section.get("kind", "gaussian").strip().lower()
    if kind == "file":
        return section["path"].strip()
    if kind == "gaussian":
        mean = _floats(section["mean"])
        cov_text = section.get("cov", "1.0")
        if ";" in cov_text:
            cov = np.asarray([_floats(row) for row in cov_text.split(";")])
        else:
            vals = _floats(cov_text)
            cov = float(vals[0]) if len(vals) == 1 else np.diag(vals)
        return gaussian(mean, cov)
    if kind == "ring":
        return ring(
            int(section.get("modes", 8)),
            float(section.get("radius", 2.0)),
            float(section.get("sigma", 0.02)),
        )
    if kind == "uniform":
        return uniform(_floats(section["low"]), _floats(section["high"]))
    if kind == "mixture":
        comps = []
        for chunk in section["components"].split("|"):
            fields = chunk.split()
            if len(fields) < 4 or fields[1].lower() != "gaussian":
                raise ValueError(
                    f"mixture component {chunk.strip()!r}: expected "
                    f"'weight gaussian <mean..> <stddev..>'"
                )
            w = float(fields[0])
            vals = [float(v) for v in fields[2:]]
            if len(vals) % 2 != 0:
                raise ValueError(f"mixture component {chunk.strip()!r}: mean/stddev arity mismatch")
            d = len(vals) // 2
            mean, stds = vals[:d], vals[d:]
            comps.append((w, gaussian(mean, np.diag(np.asarray(stds) ** 2))))
        return mixture(comps)
    raise ValueError(f"unknown density kind {kind!r}")


def density_to_section(spec: Union[DensitySpec, str]) -> dict:
    if isinstance(spec, str):
        return {"kind": "file", "path": spec}
    if spec.kind == "gaussian":
        return {
            "kind": "gaussian",
            "mean": " ".join(repr(v) for v in spec.mean),
            "cov": " ; ".join(" ".join(repr(v) for v in row) for row in spec.cov),
        }
    if spec.kind == "ring":
        return {
            "kind": "ring",
            "modes": str(spec.modes),
            "radius": repr(spec.radius),
            "sigma": repr(spec.sigma),
        }
    if spec.kind == "uniform":
        return {
            "kind": "uniform",
            "low": " ".join(repr(v) for v in spec.low),
            "high": " ".join(repr(v) for v in spec.high),
        }
    if spec.kind == "mixture":
        chunks = []
        for w, sub in zip(spec.weights, spec.components):
            stds = [repr(float(np.sqrt(sub.cov[i][i]))) for i in range(sub.dim)]
            means = [repr(v) for v in sub.mean]
            chunks.append(f"{w!r} gaussian {' '.join(means)} {' '.join(stds)}")
        return {"kind": "mixture", "components": " | ".join(chunks)}
    raise ValueError(f"unknown density kind {spec.kind!r}")


_TRAIN_FIELDS = {
    "lambda": ("lam", float),
    "penalty_variant": ("penalty_variant", str),
    "critic_iters": ("critic_iters", int),
    "batch_size": ("batch_size", int),
    "learning_rate": ("learning_rate", float),
    "beta1": ("beta1", float),
    "beta2": ("beta2", float),
    "total_generator_iters": ("total_generator_iters", int),
    "eval_every": ("eval_every", int),
    "eval_batch": ("eval_batch", int),
    "seed": ("seed", int),
    "checkpoint_every": ("checkpoint_every", int),
}


def train_config_from_text(text: str) -> TrainConfig:
    """Build a TrainConfig; unknown keys and missing sections are errors."""
    parser = parse_config_text(text)
    problems = []
    if not parser.has_section("loss") or not parser.has_option("loss", "name"):
        problems.append("missing [loss] name")
    if not parser.has_section("density.target"):
        problems.append("missing [density.target] section (f_spec)")
    if not parser.has_section("density.origin"):
        problems.append("missing [density.origin] section (h_spec)")

    kwargs = {}
    if parser.has_section("train"):
        for key, value in parser.items("train"):
            if key not in _TRAIN_FIELDS:
                problems.append(f"unknown [train] key {key!r}")
                continue
            field_name, cast = _TRAIN_FIELDS[key]
            try:
                kwargs[field_name] = cast(value)
            except ValueError:
                problems.append(f"[train] {key} = {value!r} is not a valid {cast.__name__}")

    for section, prefix in (("generator", "gen"), ("discriminator", "disc")):
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key == "hidden_widths":
                    kwargs[f"{prefix}_hidden_widths"] = tuple(
                        int(v) for v in value.replace(",", " ").split()
                    )
                elif key == "hidden":
                    kwargs[f"{prefix}_hidden"] = value.strip()
                else:
                    problems.append(f"unknown [{section}] key {key!r}")

    h_spec = None
    if parser.has_section("density.origin"):
        h_spec = density_from_section(parser["density.origin"])
        if isinstance(h_spec, str):
            problems.append("[density.origin] must be an analytic density, not a sample file")

    if problems:
        raise ValueError("invalid configuration: " + "; ".join(problems))

    return TrainConfig(
        loss_name=parser.get("loss", "name").strip(),
        f_spec=density_from_section(parser["density.target"]),
        h_spec=h_spec,
        **kwargs,
    )


def train_config_to_text(config: TrainConfig) -> str:
    """Echo mode: canonical text that re-parses to an equal configuration."""
    parser = configparser.ConfigParser()
    parser["loss"] = {"name": config.loss_name}
    parser["train"] = {key: str(getattr(config, attr)) for key, (attr, _) in _TRAIN_FIELDS.items()}
    parser["generator"] = {
        "hidden_widths": " ".join(str(w) for w in config.gen_hidden_widths),
        "hidden": config.gen_hidden,
    }
    parser["discriminator"] = {
        "hidden_widths": " ".join(str(w) for w in config.disc_hidden_widths),
        "hidden": config.disc_hidden,
    }
    parser["density.target"] = density_to_section(config.f_spec)
    parser["density.origin"] = density_to_section(config.h_spec)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_overrides(text: str, overrides) -> str:
    """Apply 'section.key=value' strings on top of a config text."""
    parser = parse_config_text(text)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ValueError(f"override {item!r} needs a section-qualified key")
        section, key = target.rsplit(".", 1)
        # density sections contain a dot themselves
        if section not in parser:
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
