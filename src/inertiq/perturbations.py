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

Because a draw is a pure function, any run of indices can be hashed in one
array pass.  Normals of width n <= 8 are computed for a block of 64
consecutive indices at once and kept read-only in an LRU cache of 256
blocks (at most 256 * 64 * 8 float64 = 1 MiB); each draw is a fresh copy
of its block's row, so the cache changes only the cost, never a value.
Wider draws hash their one index in the same pass, uncached.

Models
------
``none``            zero perturbation.
``power_decay``     deterministic magnitude c0 / k^p (or c0 / t^p in
                    continuous time) along a fixed or per-index random
                    unit direction.
``gaussian_decay``  eps_k ~ N(0, sigma_k^2 I) with sigma_k = sigma0 / (1 + decay*k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .problems import Vector

MODELS = ("none", "power_decay", "gaussian_decay")

_M64 = 0xFFFFFFFFFFFFFFFF
# uint64 scalar operands dispatch faster on uint64 arrays than Python ints
_GAMMA, _MUL1, _MUL2, _S11, _S27, _S30, _S31, _ONE = (np.uint64(v) for v in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31, 1))
_LANE_1 = 1 << 32  # counter offset of the second Box-Muller lane
_BLOCK = 64  # Gaussian draws are computed 64 consecutive indices at a time
_MAX_CACHED_N = 8  # widest draw served from a cached block


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 (increment, then finaliser) in place on a uint64 array;
    uint64 arrays wrap modulo 2^64 without masks."""
    z += _GAMMA
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return z


def _uniforms(seed: int, first: int, m: int, lanes: tuple[int, ...], n: int) -> np.ndarray:
    """Uniforms in (0, 1] of shape (len(lanes), m, n) for the m consecutive
    indices first, first + 1, ... (mod 2^64).

    key(seed, index) = splitmix64(splitmix64(seed) ^ splitmix64(index)), and
    entry (i, r, j) is splitmix64 of the counter key(seed, first + r) +
    lanes[i] + j (mod 2^64), top 53 bits mapped to (0, 1].  Every lane of
    every index is hashed in one in-place pass.
    """
    # one pass mixes the seed (entry 0) and the indices (entries 1..m)
    mix = np.arange(m + 1, dtype=np.uint64)
    mix += np.uint64((first - 1) & _M64)
    mix[0] = seed & _M64
    _splitmix64(mix)
    keys = _splitmix64(mix[1:] ^ mix[0])
    offsets = np.array([lane & _M64 for lane in lanes], dtype=np.uint64)
    z = keys + offsets[:, None]
    z = z[:, :, None] + np.arange(n, dtype=np.uint64)
    _splitmix64(z)
    # +1 keeps log() finite; the shift, the +1 and both float steps are exact.
    z >>= _S11
    z += _ONE
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    return u


def _normals(seed: int, first: int, m: int, n: int) -> np.ndarray:
    """Box-Muller normals of shape (m, n) for the m indices from ``first``."""
    u1, u2 = _uniforms(seed, first, m, (0, _LANE_1), n)
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    return u1 * u2


@functools.lru_cache(maxsize=256)
def _normal_block(seed: int, block: int, n: int) -> np.ndarray:
    """Read-only normals of the 64 indices block * 64 ... block * 64 + 63;
    at most 256 * 64 * 8 float64 = 1 MiB of cached draws."""
    out = _normals(seed, block * _BLOCK, _BLOCK, n)
    out.flags.writeable = False
    return out


def counter_uniform(seed: int, index: int, n: int, lane: int = 0) -> Vector:
    """n uniforms in (0, 1]; coordinate j hashes the counter
    key(seed, index) + lane + j (mod 2^64)."""
    return _uniforms(seed, index, 1, (lane,), n)[0, 0]


def counter_standard_normal(seed: int, index: int, n: int) -> Vector:
    """n standard normals via Box-Muller on counter-based uniforms.

    Coordinate j takes u1 from counter key + j and u2 from counter
    key + 2^32 + j, i.e. ``counter_uniform`` at lanes 0 and 2^32.  The
    transform sqrt(-2 log u1) cos(2 pi u2) is fixed so golden CSVs stay
    stable across platforms and versions.  For n <= 8 the draw is a fresh
    copy of one row of its cached 64-index block.
    """
    row = _normal_rows((seed,), index, n)[0]
    return row.copy() if n <= _MAX_CACHED_N else row


def _normal_rows(seeds, index: int, n: int) -> list:
    """The n standard normals of counter ``index`` for each seed: up to
    width 8 a read-only row of the seed's cached 64-index block, wider a
    row hashed alone."""
    if n > _MAX_CACHED_N:
        return [_normals(seed, index, 1, n)[0] for seed in seeds]
    block, row = divmod(index & _M64, _BLOCK)
    return [_normal_block(seed & _M64, block, n)[row] for seed in seeds]


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
            if not (self.c0 >= 0):
                raise ValueError("c0 must be nonnegative")
            if not (self.p > 0):
                raise ValueError("power p must be positive")
        if self.model == "gaussian_decay":
            if not (self.sigma0 >= 0 and self.decay >= 0):
                raise ValueError("sigma0 and decay must be nonnegative")
        if isinstance(self.direction, str):
            if self.direction not in ("e1", "random"):
                raise ValueError(
                    f"unknown perturbation direction {self.direction!r}; expected e1 or random"
                )
        else:
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


def power_magnitude(spec: PerturbationSpec, at: float) -> float:
    """The power_decay magnitude c0 / at^p as a float; 0 where at^p
    overflows, and ``ValueError`` where the quotient is not finite."""
    try:
        t_p = float(at) ** spec.p
    except OverflowError:  # t^p beyond the float range: c0/t^p rounds to 0
        t_p = math.inf
    magnitude = spec.c0 / t_p if t_p else math.inf
    if not math.isfinite(magnitude):
        raise ValueError(
            f"power perturbation c0/t^p = {spec.c0:g}/{t_p:g} = {magnitude:g} is not finite "
            f"at t = {at:g}, p = {spec.p:g}"
        )
    return magnitude


def power_direction(spec: PerturbationSpec, index: int, dim: int) -> Vector:
    """The power_decay unit direction: e1, the explicit vector normalized,
    or a normalized standard normal drawn with counter ``index``."""
    if spec.direction == "random":
        u = counter_standard_normal(spec.seed, index, dim)
        nrm = float(np.linalg.norm(u))
        if nrm:
            return u / nrm
        # unreachable in practice (Box-Muller output is a.s. nonzero): e1
    elif spec.direction != "e1":
        vec = np.asarray(spec.direction, dtype=np.float64)
        if vec.shape[0] != dim:
            raise ValueError(
                f"perturbation direction has length {vec.shape[0]}, expected {dim}"
            )
        return vec / float(np.linalg.norm(vec))
    e1 = np.zeros(dim)
    e1[0] = 1.0
    return e1


def _positive_time(t: float) -> None:
    """Refuse a continuous-time power_decay draw at t <= 0."""
    if t <= 0.0:
        raise ValueError(f"power-decay perturbation needs t > 0, got {t}")


def _draw(spec: PerturbationSpec, at: float, index: int, dim: int) -> Vector:
    """Magnitude at iteration or time ``at`` times the direction drawn with
    counter ``index``: c0 / at^p along a unit direction, or sigma(at) times
    a standard normal.  A finite magnitude m >= 0 times e1 is exact, so the
    power draw needs no e1 special case."""
    if spec.model == "none":
        return np.zeros(dim)
    if spec.model == "gaussian_decay":
        return spec.sigma_at(at) * counter_standard_normal(spec.seed, index, dim)
    return power_magnitude(spec, at) * power_direction(spec, index, dim)


def sample_discrete(spec: PerturbationSpec, k: int, dim: int) -> Vector:
    """Perturbation vector eps_k for iteration index k >= 1.

    Deterministic in (seed, k, dim); power_decay has norm exactly c0 / k^p.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    return _draw(spec, k, k, dim)


def sample_discrete_rows(spec: PerturbationSpec, seeds, k: int, dim: int) -> np.ndarray:
    """The eps_k of several seeds as rows: row i is ``sample_discrete`` of
    ``spec`` with seed ``seeds[i]``, bit for bit, since the magnitude is one
    float for every seed and scales each row alike."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    if spec.model == "gaussian_decay":
        # _draw's Gaussian case without a with_seed copy of spec per seed,
        # which takes two thirds of the general line's time; np.array copies
        # the cached rows, as counter_standard_normal does.
        return spec.sigma_at(k) * np.array(_normal_rows(seeds, k, dim))
    return np.array([_draw(spec.with_seed(seed), k, k, dim) for seed in seeds])


def sample_continuous(
    spec: PerturbationSpec, t: float, dim: int, step: int | None = None
) -> Vector:
    """Perturbation eps(t) for the continuous-time system.

    power_decay is an exact function of t (requires t > 0).  Random
    directions and gaussian_decay draws are frozen per integrator step: the
    counter is the step index + 1, so ``step`` must be supplied (the
    integrator passes it); sigma follows the schedule evaluated at t.
    """
    if spec.model == "power_decay":
        _positive_time(t)
    if step is None and spec.is_stochastic:
        raise ValueError("random draws in continuous time need a step index")
    return _draw(spec, t, 0 if step is None else step + 1, dim)


_GRAMMAR_KEYS = {"power": ("c0", "p", "dir"), "gauss": ("sigma0", "decay")}


def parse_perturbation(text: str, seed: int = 0) -> PerturbationSpec:
    """Parse the CLI mini-grammar; a key the model does not read is an error.

    ``none`` | ``power:c0=<r>,p=<r>[,dir=e1|random]`` | ``gauss:sigma0=<r>,decay=<r>``
    """
    text = text.strip()
    if text == "none" or text == "":
        return PerturbationSpec.none()
    head, _, body = text.partition(":")
    if head not in _GRAMMAR_KEYS:
        raise ValueError(f"unknown perturbation spec {text!r}")
    kv: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad perturbation parameter {item!r}")
            kv[key.strip()] = val.strip()
    unread = set(kv) - set(_GRAMMAR_KEYS[head])
    if unread:
        raise ValueError(f"unknown {head} perturbation parameter {min(unread)!r}")
    if head == "power":
        return PerturbationSpec.power(
            c0=float(kv.get("c0", "0")),
            p=float(kv.get("p", "1")),
            direction=kv.get("dir", "e1"),
            seed=seed,
        )
    return PerturbationSpec.gaussian(
        sigma0=float(kv.get("sigma0", "0")),
        decay=float(kv.get("decay", "0")),
        seed=seed,
    )


def format_perturbation(spec: PerturbationSpec) -> str:
    """The grammar text of ``spec`` without its seed, as run CSV headers show it.

    :func:`parse_perturbation` reads it back to ``spec`` (given the seed)
    when the direction is ``e1`` or ``random``: each parameter is written
    with ``:g`` when that reads back to the same float, else with ``repr``.
    An explicit direction vector renders as ``dir=custom``, which names no
    vector, and the parser rejects it.
    """
    if spec.model == "none":
        return "none"
    if spec.model == "power_decay":
        d = spec.direction if isinstance(spec.direction, str) else "custom"
        return f"power:c0={_exact(spec.c0)},p={_exact(spec.p)},dir={d}"
    return f"gauss:sigma0={_exact(spec.sigma0)},decay={_exact(spec.decay)}"


def _exact(value: float) -> str:
    """``value`` as ``:g`` when that is the same float, else as ``repr``."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))
