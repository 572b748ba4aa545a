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

A configuration holds these sections and no other: [loss] (its one key
is name), [train], [generator], [discriminator], [density.target] and
[density.origin].  Any other section, or any other [loss] key, is an
error.  The [train], [generator] and [discriminator] keys are
TrainConfig's fields with defaults (gen_/disc_ prefixes name the section,
lam is lambda), cast to the default's type: [generator] hidden_widths = 64 64.

Density kinds: gaussian (mean, cov: scalar, diagonal, or ';'-separated
rows), ring (modes, radius, sigma), uniform (low, high), mixture
(components = weight gaussian <mean..> <diag-stddevs..> | ...), file
(path = samples.csv, target only; read once when the config is parsed).
Gaussian, uniform and mixture take any dimension and a ring is 2-D;
solve-grid grids are 1-D or 2-D only.  A density section may hold the
keys of any kind, and no other key.
"""

from __future__ import annotations

import configparser
import functools
import io
from dataclasses import MISSING, fields
from typing import TYPE_CHECKING

import numpy as np

from .densities import DensitySpec, gaussian, mixture, ring, sample_file, uniform

if TYPE_CHECKING:
    from .training import TrainConfig

__all__ = [
    "SECTIONS",
    "unknown_sections",
    "parse_config_text",
    "train_config_from_text",
    "train_config_to_text",
    "density_from_section",
    "density_to_section",
    "apply_overrides",
]


def _floats(text: str) -> list:
    return [float(v) for v in text.replace(",", " ").split()]


# Every section a configuration may hold, in the order echo mode writes them.
SECTIONS = ("loss", "train", "generator", "discriminator", "density.target", "density.origin")


def parse_config_text(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return parser


def unknown_sections(parser: configparser.ConfigParser) -> list:
    """One problem line per section that is not in SECTIONS."""
    return [f"unknown section [{name}]" for name in parser.sections() if name not in SECTIONS]


# Every key that some density kind reads.  A key of another kind than the
# section's is accepted, so an override can switch a preset's kind.
_DENSITY_KEYS = ("kind", "path", "mean", "cov", "modes", "radius", "sigma", "low", "high", "components")


def density_from_section(section) -> DensitySpec:
    """A density from a configparser section (or a plain mapping); a key
    that no kind reads, or a missing required key, is named with its
    section."""
    name = getattr(section, "name", "density")
    unknown = [key for key in section if key not in _DENSITY_KEYS]
    if unknown:
        raise ValueError(f"unknown [{name}] key {unknown[0]!r}")
    kind = section.get("kind", "gaussian").strip().lower()
    try:
        if kind == "file":
            return sample_file(section["path"])
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
                words = chunk.split()
                if len(words) < 4 or words[1].lower() != "gaussian":
                    raise ValueError(
                        f"mixture component {chunk.strip()!r}: expected "
                        f"'weight gaussian <mean..> <stddev..>'"
                    )
                w = float(words[0])
                vals = [float(v) for v in words[2:]]
                if len(vals) % 2 != 0:
                    raise ValueError(f"mixture component {chunk.strip()!r}: mean/stddev arity mismatch")
                d = len(vals) // 2
                mean, stds = vals[:d], vals[d:]
                comps.append((w, gaussian(mean, np.diag(np.asarray(stds) ** 2))))
            return mixture(comps)
    except KeyError as exc:
        raise ValueError(f"[{name}] kind = {kind} needs a {exc.args[0]!r} key") from None
    raise ValueError(f"unknown density kind {kind!r}")


def density_to_section(spec: DensitySpec) -> dict:
    if spec.kind == "file":
        return {"kind": "file", "path": spec.path}
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


def _section_key(field_name: str) -> tuple:
    """Where a TrainConfig field lives in the text: gen_*/disc_* fields in
    [generator]/[discriminator], the rest in [train] (lam as lambda)."""
    for section, prefix in (("generator", "gen_"), ("discriminator", "disc_")):
        if field_name.startswith(prefix):
            return section, field_name[len(prefix):]
    return "train", {"lam": "lambda"}.get(field_name, field_name)


def _widths(text: str) -> tuple:
    return tuple(int(v) for v in text.replace(",", " ").split())


@functools.cache
def _train_keys() -> dict:
    """Every TrainConfig field with a default, in field order, keyed by
    (section, key); its cast follows the type of the default.  Read on first
    use, so loading this module does not load the trainer."""
    from .training import TrainConfig

    return {_section_key(f.name): f for f in fields(TrainConfig) if f.default is not MISSING}


_CASTS = {float: float, int: int, str: str, tuple: _widths}


def _to_text(value) -> str:
    return " ".join(str(w) for w in value) if isinstance(value, tuple) else str(value)


def train_config_from_text(text: str) -> TrainConfig:
    """Build a TrainConfig; unknown sections and keys, and missing sections, are errors."""
    from .training import TrainConfig

    keys = _train_keys()
    parser = parse_config_text(text)
    problems = unknown_sections(parser)
    if not parser.has_section("loss") or not parser.has_option("loss", "name"):
        problems.append("missing [loss] name")
    if not parser.has_section("density.target"):
        problems.append("missing [density.target] section (f_spec)")
    if not parser.has_section("density.origin"):
        problems.append("missing [density.origin] section (h_spec)")

    kwargs = {}
    for section in SECTIONS:
        # density_from_section checks the density sections' keys
        if section.startswith("density.") or not parser.has_section(section):
            continue
        for key, value in parser.items(section):
            if (section, key) == ("loss", "name"):
                continue
            field = keys.get((section, key))
            if field is None:
                problems.append(f"unknown [{section}] key {key!r}")
                continue
            cast = type(field.default)
            try:
                kwargs[field.name] = _CASTS[cast](value)
            except ValueError:
                problems.append(f"[{section}] {key} = {value!r} is not a valid {cast.__name__}")

    h_spec = None
    if parser.has_section("density.origin"):
        h_spec = density_from_section(parser["density.origin"])
        if h_spec.kind == "file":
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
    sections = {section: {} for section in SECTIONS}
    sections["loss"]["name"] = config.loss_name
    for (section, key), field in _train_keys().items():
        sections[section][key] = _to_text(getattr(config, field.name))
    sections["density.target"] = density_to_section(config.f_spec)
    sections["density.origin"] = density_to_section(config.h_spec)
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
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
        # density sections contain a dot themselves
        section, key = (part.strip() for part in target.rsplit(".", 1))
        if section not in parser:
            parser.add_section(section)
        parser.set(section, key, value.strip())
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
