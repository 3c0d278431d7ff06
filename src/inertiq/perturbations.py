"""Perturbation models with a counter-based reproducibility contract.

Every draw is a pure function of (seed, index, coordinate): the generator
hashes the key with splitmix64 and maps the bits to uniforms, then to
normals via Box-Muller.  Re-sampling any index returns the identical
vector regardless of call order, which keeps perturbed optimizer runs and
ODE integrations bitwise reproducible even when consumers sample out of
order or in parallel.

Models
------
``none``            zero perturbation.
``power_decay``     deterministic magnitude c0 / k^p (or c0 / t^p in
                    continuous time) along a fixed or per-index random
                    unit direction.
``gaussian_decay``  eps_k ~ N(0, sigma_k^2 I) with sigma_k = sigma0 / (1 + decay*k).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, NonPositiveTime

Vector = NDArray[np.float64]

MODELS = ("none", "power_decay", "gaussian_decay")

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z):
    """Vectorized splitmix64 finalizer; wraps modulo 2^64."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * _MUL1) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * _MUL2) & _MASK
    return z ^ (z >> np.uint64(31))


def _splitmix64_int(z: int) -> int:
    """Scalar splitmix64 on Python ints (numpy scalars warn on overflow)."""
    mask = 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _key(seed: int, index: int) -> int:
    s = seed & 0xFFFFFFFFFFFFFFFF
    k = index & 0xFFFFFFFFFFFFFFFF
    return _splitmix64_int(_splitmix64_int(s) ^ _splitmix64_int(k))


def counter_uniform(seed: int, index: int, n: int, lane: int = 0) -> Vector:
    """n uniforms in (0, 1], keyed by (seed, index, coordinate, lane)."""
    base = (_key(seed, index) + (lane & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
    ctr = (np.uint64(base) + np.arange(n, dtype=np.uint64)) & _MASK
    bits = _splitmix64(ctr)
    # Top 53 bits -> (0, 1]; +1 keeps log() finite.
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def counter_standard_normal(seed: int, index: int, n: int) -> Vector:
    """n standard normals via Box-Muller on counter-based uniforms.

    Coordinate j uses lanes (2j, 2j+1); the transform is fixed so golden
    CSVs stay stable across platforms and versions.
    """
    u1 = counter_uniform(seed, index, n, lane=0)
    u2 = counter_uniform(seed, index, n, lane=1 << 32)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation model plus its parameters and seed.

    direction applies to power_decay only: "e1" (first basis vector),
    "random" (counter-based unit direction per index), or an explicit
    vector, which is normalized and must have the problem's dimension.
    """

    model: str = "none"
    c0: float = 0.0
    p: float = 1.0
    sigma0: float = 0.0
    decay: float = 0.0
    seed: int = 0
    direction: str | tuple[float, ...] = "e1"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown perturbation model {self.model!r}")
        if self.model == "power_decay":
            if self.c0 < 0:
                raise ValueError("c0 must be nonnegative")
            if not (self.p > 0):
                raise ValueError("power p must be positive")
        if self.model == "gaussian_decay":
            if self.sigma0 < 0 or self.decay < 0:
                raise ValueError("sigma0 and decay must be nonnegative")
        if not isinstance(self.direction, str):
            vec = tuple(float(v) for v in self.direction)
            if not any(vec):
                raise ValueError("explicit direction must be nonzero")
            object.__setattr__(self, "direction", vec)

    @staticmethod
    def none() -> "PerturbationSpec":
        return PerturbationSpec()

    @staticmethod
    def power(c0: float, p: float, direction="e1", seed: int = 0) -> "PerturbationSpec":
        return PerturbationSpec(
            model="power_decay", c0=c0, p=p, direction=direction, seed=seed
        )

    @staticmethod
    def gaussian(sigma0: float, decay: float, seed: int = 0) -> "PerturbationSpec":
        return PerturbationSpec(
            model="gaussian_decay", sigma0=sigma0, decay=decay, seed=seed
        )

    def with_seed(self, seed: int) -> "PerturbationSpec":
        return replace(self, seed=seed)

    @property
    def is_zero(self) -> bool:
        if self.model == "none":
            return True
        if self.model == "power_decay":
            return self.c0 == 0.0
        return self.sigma0 == 0.0

    @property
    def is_stochastic(self) -> bool:
        """True when draws depend on the seed."""
        return self.model == "gaussian_decay" or (
            self.model == "power_decay" and self.direction == "random"
        )

    def sigma_at(self, k: float) -> float:
        """Gaussian standard deviation schedule sigma0 / (1 + decay*k)."""
        return self.sigma0 / (1.0 + self.decay * k)


def _unit_direction(spec: PerturbationSpec, index: int, dim: int) -> Vector:
    if spec.direction == "e1":
        e = np.zeros(dim)
        e[0] = 1.0
        return e
    if spec.direction == "random":
        u = counter_standard_normal(spec.seed, index, dim)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:  # unreachable in practice; Box-Muller output is a.s. nonzero
            u = np.zeros(dim)
            u[0] = 1.0
            return u
        return u / nrm
    vec = np.asarray(spec.direction, dtype=np.float64)
    if vec.shape[0] != dim:
        raise DimensionMismatch(
            f"perturbation direction has length {vec.shape[0]}, expected {dim}"
        )
    return vec / float(np.linalg.norm(vec))


def sample_discrete(spec: PerturbationSpec, k: int, dim: int) -> Vector:
    """Perturbation vector eps_k for iteration index k >= 1.

    Deterministic in (seed, k, dim); power_decay has norm exactly c0 / k^p.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    if spec.model == "none":
        return np.zeros(dim)
    if spec.model == "power_decay":
        return (spec.c0 / float(k) ** spec.p) * _unit_direction(spec, k, dim)
    sigma = spec.sigma_at(k)
    return sigma * counter_standard_normal(spec.seed, k, dim)


def sample_continuous(
    spec: PerturbationSpec, t: float, dim: int, step: int | None = None
) -> Vector:
    """Perturbation eps(t) for the continuous-time system.

    power_decay is an exact function of t (requires t > 0).  gaussian_decay
    draws are frozen per integrator step: the counter is the step index, so
    ``step`` must be supplied (the integrator passes it); sigma follows the
    schedule evaluated at t.
    """
    if spec.model == "none":
        return np.zeros(dim)
    if spec.model == "power_decay":
        if t <= 0.0:
            raise NonPositiveTime(f"power-decay perturbation needs t > 0, got {t}")
        index = step + 1 if step is not None else 0
        if spec.direction == "random" and step is None:
            raise ValueError("random direction in continuous time needs a step index")
        return (spec.c0 / float(t) ** spec.p) * _unit_direction(spec, index, dim)
    if step is None:
        raise ValueError("gaussian_decay in continuous time needs a step index")
    sigma = spec.sigma_at(t)
    return sigma * counter_standard_normal(spec.seed, step + 1, dim)


def parse_perturbation(text: str, seed: int = 0) -> PerturbationSpec:
    """Parse the CLI mini-grammar.

    ``none`` | ``power:c0=<r>,p=<r>[,dir=e1|random]`` | ``gauss:sigma0=<r>,decay=<r>``
    """
    text = text.strip()
    if text == "none" or text == "":
        return PerturbationSpec.none()
    head, _, body = text.partition(":")
    kv: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad perturbation parameter {item!r}")
            kv[key.strip()] = val.strip()
    if head == "power":
        return PerturbationSpec.power(
            c0=float(kv.get("c0", "0")),
            p=float(kv.get("p", "1")),
            direction=kv.get("dir", "e1"),
            seed=seed,
        )
    if head == "gauss":
        return PerturbationSpec.gaussian(
            sigma0=float(kv.get("sigma0", "0")),
            decay=float(kv.get("decay", "0")),
            seed=seed,
        )
    raise ValueError(f"unknown perturbation spec {text!r}")


def format_perturbation(spec: PerturbationSpec) -> str:
    """Inverse of :func:`parse_perturbation` (seed not included)."""
    if spec.model == "none":
        return "none"
    if spec.model == "power_decay":
        d = spec.direction if isinstance(spec.direction, str) else "custom"
        return f"power:c0={spec.c0:g},p={spec.p:g},dir={d}"
    return f"gauss:sigma0={spec.sigma0:g},decay={spec.decay:g}"
