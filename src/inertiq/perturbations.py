"""Perturbation models with a counter-based reproducibility contract.

Every draw is a pure function of (seed, index, coordinate): a key is
derived from (seed, index) with splitmix64, coordinate j of lane L hashes
the counter key + L + j (mod 2^64) with splitmix64, and the top 53 bits
become a uniform in (0, 1].  A standard normal takes u1 from lane 0 and
u2 from lane 2^32 (counters key + j and key + 2^32 + j) and applies
Box-Muller.  Re-sampling any index returns the identical
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

from .errors import DimensionMismatch, NonPositiveTime
from .problems import Vector

MODELS = ("none", "power_decay", "gaussian_decay")

_M64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
# uint64 scalar operands dispatch faster on uint64 arrays than Python ints
_S11, _S27, _S30, _S31, _ONE = (np.uint64(v) for v in (11, 27, 30, 31, 1))
_LANE_1 = 1 << 32  # counter offset of the second Box-Muller lane


def _splitmix64_int(z: int) -> int:
    """Scalar splitmix64 on Python ints (numpy scalars warn on overflow)."""
    z = (z + _GAMMA) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _key(seed: int, index: int) -> int:
    s = seed & _M64
    k = index & _M64
    return _splitmix64_int(_splitmix64_int(s) ^ _splitmix64_int(k))


def _uniforms(seed: int, index: int, lanes: tuple[int, ...], n: int) -> np.ndarray:
    """Uniforms in (0, 1] of shape (len(lanes), n).

    Entry (i, j) is splitmix64 of the counter key(seed, index) + lanes[i] + j
    (mod 2^64), top 53 bits mapped to (0, 1].  The splitmix increment is
    added to the Python-int key, uint64 arrays wrap modulo 2^64 without
    masks, and every lane is hashed in one in-place pass.
    """
    base = _key(seed, index) + _GAMMA
    z = np.array([(base + lane) & _M64 for lane in lanes], dtype=np.uint64)
    z = z[:, None] + np.arange(n, dtype=np.uint64)
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    # +1 keeps log() finite; the shift, the +1 and both float steps are exact.
    z >>= _S11
    z += _ONE
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    return u


def counter_uniform(seed: int, index: int, n: int, lane: int = 0) -> Vector:
    """n uniforms in (0, 1]; coordinate j hashes the counter
    key(seed, index) + lane + j (mod 2^64)."""
    return _uniforms(seed, index, (lane,), n)[0]


def counter_standard_normal(seed: int, index: int, n: int) -> Vector:
    """n standard normals via Box-Muller on counter-based uniforms.

    Coordinate j takes u1 from counter key + j and u2 from counter
    key + 2^32 + j, i.e. ``counter_uniform`` at lanes 0 and 2^32.  The
    transform sqrt(-2 log u1) cos(2 pi u2) is fixed so golden CSVs stay
    stable across platforms and versions.
    """
    u = _uniforms(seed, index, (0, _LANE_1), n)
    u1 = u[0]
    u2 = u[1]
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    return u1 * u2


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


def _draw(spec: PerturbationSpec, at: float, index: int, dim: int) -> Vector:
    """Magnitude at iteration or time ``at`` times the direction drawn with
    counter ``index``: c0 / at^p along a unit direction, or sigma(at) times
    a standard normal."""
    if spec.model == "none":
        return np.zeros(dim)
    if spec.model == "power_decay":
        return (spec.c0 / float(at) ** spec.p) * _unit_direction(spec, index, dim)
    return spec.sigma_at(at) * counter_standard_normal(spec.seed, index, dim)


def sample_discrete(spec: PerturbationSpec, k: int, dim: int) -> Vector:
    """Perturbation vector eps_k for iteration index k >= 1.

    Deterministic in (seed, k, dim); power_decay has norm exactly c0 / k^p.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    return _draw(spec, k, k, dim)


def sample_continuous(
    spec: PerturbationSpec, t: float, dim: int, step: int | None = None
) -> Vector:
    """Perturbation eps(t) for the continuous-time system.

    power_decay is an exact function of t (requires t > 0).  Random
    directions and gaussian_decay draws are frozen per integrator step: the
    counter is the step index + 1, so ``step`` must be supplied (the
    integrator passes it); sigma follows the schedule evaluated at t.
    """
    if spec.model == "power_decay" and t <= 0.0:
        raise NonPositiveTime(f"power-decay perturbation needs t > 0, got {t}")
    if step is None and spec.is_stochastic:
        raise ValueError("random draws in continuous time need a step index")
    return _draw(spec, t, 0 if step is None else step + 1, dim)


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
