"""Self-dual quaternion random matrix ensembles and the reduction pipeline.

A self-dual Hermitian quaternion matrix has independent entries on and above
the diagonal, the mirror symmetry ``x[k,j] = conj(x[j,k])`` and a real
diagonal.  Built-in entry distributions are normalized so that off-diagonal
entries have mean zero and ``E ||x||^2 = 1`` and the diagonal has second
moment 1; the matrix is scaled by ``1/sqrt(n)``.

The reduction pipeline (:func:`truncate`, :func:`zero_diagonal`,
:func:`centralize`, :func:`rescale`) replaces entries by bounded, centered,
variance-one versions while recording diagnostics that bound the distance
between the spectral distributions of consecutive stages:

* a rank bound: the sup distance of the two ESDs is at most
  ``rank(difference) / (2n)``;
* a Levy bound: the cubed Levy distance is at most
  ``tr(D D^*) / (2n)`` for the stage difference ``D``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .quaternion import Quaternion

__all__ = [
    "SpecError",
    "Distribution",
    "GSECoefficients",
    "RademacherCoefficients",
    "UniformCoefficients",
    "TwoPointCoefficients",
    "UserCoefficients",
    "distribution_from_json",
    "EtaSchedule",
    "EnsembleSpec",
    "SelfDualMatrix",
    "sample_gse",
    "sample_general",
    "lindeberg_statistic",
    "truncate",
    "zero_diagonal",
    "centralize",
    "rescale",
    "run_pipeline",
    "StageRecord",
    "PipelineTrace",
]

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
_MOMENT_SAMPLES = 1_000_000
_LINDEBERG_SAMPLES = 200_000
# rng stream tags so moment estimation / replacement draws never collide
# with the entry stream
_MOMENT_TAG = 0x4D4F4D
_RESCALE_TAG = 0x524553


class SpecError(ValueError):
    """An ensemble description violates the moment conditions."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# entry distributions
# ---------------------------------------------------------------------------

class Distribution:
    """Base class for entry distributions of the four quaternion coefficients.

    Subclasses draw unscaled off-diagonal coefficient vectors with
    ``E x = 0`` and ``E ||x||^2 = 1`` and real diagonal values with second
    moment 1.  Closed-form truncated moments are provided where available;
    ``None`` means the caller falls back to Monte Carlo.
    """

    kind = "base"

    def sample_coeffs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample_diag(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def validate(self) -> None:
        return None

    def truncated_mean(self, c: float) -> Optional[np.ndarray]:
        """``E[x * I(||x|| <= c)]`` as a coefficient 4-vector, or None."""
        return None

    def truncated_second_moment(self, c: float) -> Optional[float]:
        """``E[||x||^2 * I(||x|| <= c)]``, or None."""
        return None

    def tail_second_moment(self, c: float) -> Optional[float]:
        """``E[||x||^2 * I(||x|| >= c)]``, or None."""
        m = self.truncated_second_moment(c)
        return None if m is None else 1.0 - m

    def diag_tail_second_moment(self, c: float) -> Optional[float]:
        """``E[x_jj^2 * I(|x_jj| >= c)]``, or None."""
        return None

    def params(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}


class GSECoefficients(Distribution):
    """Gaussian coefficients: off-diagonal variance 1/4 each, diagonal variance 1."""

    kind = "gse"

    def sample_coeffs(self, rng, size):
        return 0.5 * rng.standard_normal((size, 4))

    def sample_diag(self, rng, size):
        return rng.standard_normal(size)

    def truncated_mean(self, c):
        return np.zeros(4)

    def tail_second_moment(self, c):
        # ||x||^2 = chi2(4)/4, so E[||x||^2 I(||x|| >= c)] with u = 4c^2 is
        # exp(-u/2) * (u^2/8 + u/2 + 1)
        u = 4.0 * c * c
        return math.exp(-u / 2.0) * (u * u / 8.0 + u / 2.0 + 1.0)

    def truncated_second_moment(self, c):
        return 1.0 - self.tail_second_moment(c)

    def diag_tail_second_moment(self, c):
        # standard normal: E[v^2 I(|v| >= c)] = 2 c phi(c) + erfc(c / sqrt 2)
        phi = math.exp(-c * c / 2.0) / math.sqrt(2.0 * math.pi)
        return 2.0 * c * phi + math.erfc(c / math.sqrt(2.0))


class RademacherCoefficients(Distribution):
    """Coefficients +-1/2 with equal probability; diagonal +-1."""

    kind = "rademacher"

    def sample_coeffs(self, rng, size):
        return 0.5 * rng.choice([-1.0, 1.0], size=(size, 4))

    def sample_diag(self, rng, size):
        return rng.choice([-1.0, 1.0], size=size)

    def truncated_mean(self, c):
        return np.zeros(4)

    def truncated_second_moment(self, c):
        return 1.0 if c >= 1.0 else 0.0

    def tail_second_moment(self, c):
        return 1.0 if c <= 1.0 else 0.0

    def diag_tail_second_moment(self, c):
        return 1.0 if c <= 1.0 else 0.0


class UniformCoefficients(Distribution):
    """Coefficients uniform on [-sqrt(3)/2, sqrt(3)/2] (variance 1/4); diagonal on [-sqrt 3, sqrt 3]."""

    kind = "uniform"
    _half = math.sqrt(3.0) / 2.0

    def sample_coeffs(self, rng, size):
        return rng.uniform(-self._half, self._half, size=(size, 4))

    def sample_diag(self, rng, size):
        return rng.uniform(-2.0 * self._half, 2.0 * self._half, size=size)

    def truncated_mean(self, c):
        return np.zeros(4)

    def truncated_second_moment(self, c):
        return 1.0 if c >= math.sqrt(3.0) else None

    def diag_tail_second_moment(self, c):
        b = math.sqrt(3.0)
        if c >= b:
            return 0.0
        return (b**3 - c**3) / (3.0 * b)


class TwoPointCoefficients(Distribution):
    """Coefficients on two points {lo, hi} with P(hi) = p, scaled to variance 1/4.

    The raw law must already have mean zero (no recentering is applied) and
    positive variance.  Truncated moments are exact, by enumeration of the
    16 coefficient sign patterns.
    """

    kind = "two_point"

    def __init__(self, lo: float, hi: float, p: float):
        self.lo = float(lo)
        self.hi = float(hi)
        self.p = float(p)
        mean = self.p * self.hi + (1.0 - self.p) * self.lo
        var = self.p * self.hi**2 + (1.0 - self.p) * self.lo**2 - mean**2
        self._mean = mean
        self._scale = 0.5 / math.sqrt(var) if var > 0 else float("nan")

    def validate(self):
        if not 0.0 < self.p < 1.0:
            raise SpecError(f"two-point probability must be in (0, 1), got {self.p}")
        spread = max(abs(self.lo), abs(self.hi))
        if abs(self._mean) > 1e-12 * max(spread, 1.0):
            raise SpecError(
                f"two-point law has nonzero mean {self._mean:.3g}; shift it to zero first")
        if not math.isfinite(self._scale):
            raise SpecError("two-point law has zero variance; cannot normalize")

    def _values(self):
        return np.array([self.lo, self.hi]) * self._scale

    def _probs(self):
        return np.array([1.0 - self.p, self.p])

    def sample_coeffs(self, rng, size):
        return rng.choice(self._values(), size=(size, 4), p=self._probs())

    def sample_diag(self, rng, size):
        return 2.0 * rng.choice(self._values(), size=size, p=self._probs())

    def _enumerate(self):
        vals = self._values()
        probs = self._probs()
        idx = np.indices((2, 2, 2, 2)).reshape(4, -1).T
        coeffs = vals[idx]                        # (16, 4)
        weight = probs[idx].prod(axis=1)          # (16,)
        return coeffs, weight

    def truncated_mean(self, c):
        coeffs, weight = self._enumerate()
        inside = np.linalg.norm(coeffs, axis=1) <= c
        return (coeffs * (weight * inside)[:, None]).sum(axis=0)

    def truncated_second_moment(self, c):
        coeffs, weight = self._enumerate()
        sq = (coeffs**2).sum(axis=1)
        inside = np.sqrt(sq) <= c
        return float((sq * weight * inside).sum())

    def tail_second_moment(self, c):
        coeffs, weight = self._enumerate()
        sq = (coeffs**2).sum(axis=1)
        outside = np.sqrt(sq) >= c
        return float((sq * weight * outside).sum())

    def diag_tail_second_moment(self, c):
        vals = 2.0 * self._values()
        probs = self._probs()
        outside = np.abs(vals) >= c
        return float((vals**2 * probs * outside).sum())

    def params(self):
        return {"lo": self.lo, "hi": self.hi, "p": self.p}


class UserCoefficients(Distribution):
    """User-supplied coefficient sampler, moment-normalized by Monte Carlo.

    ``sampler(rng, size)`` must return a ``(size, 4)`` float array.  On first
    use the law is checked for (approximately) zero mean and rescaled so the
    entry second moment is 1, on draws from a fixed stream (seed 0); a
    clearly shifted or degenerate law raises :class:`SpecError`.  Not
    JSON-serializable.
    """

    kind = "user"

    def __init__(self, sampler: Callable):
        self.sampler = sampler
        self._scale = None

    def _calibrate(self):
        if self._scale is not None:
            return
        rng = np.random.default_rng(np.random.SeedSequence((0, _MOMENT_TAG)))
        draws = np.asarray(self.sampler(rng, 100_000), dtype=float)
        if draws.shape != (100_000, 4):
            raise SpecError(f"user sampler returned shape {draws.shape}, expected (N, 4)")
        m2 = float((draws**2).sum(axis=1).mean())
        if m2 <= 0 or not math.isfinite(m2):
            raise SpecError("user law cannot be variance-normalized")
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0) / math.sqrt(draws.shape[0])
        if np.any(np.abs(mean) > 5 * stderr + 1e-12):
            raise SpecError(f"user law has nonzero coefficient mean {mean}")
        self._scale = 1.0 / math.sqrt(m2)

    def validate(self):
        self._calibrate()

    def sample_coeffs(self, rng, size):
        self._calibrate()
        return self._scale * np.asarray(self.sampler(rng, size), dtype=float)

    def sample_diag(self, rng, size):
        return 2.0 * self.sample_coeffs(rng, size)[:, 0]

    def to_json(self):
        raise SpecError("user-supplied distributions are not serializable")


_BUILTINS = {
    "gse": GSECoefficients,
    "rademacher": RademacherCoefficients,
    "uniform": UniformCoefficients,
    "two_point": TwoPointCoefficients,
}


def distribution_from_json(obj: dict) -> Distribution:
    """Built-in law from ``{"kind": ..., "params": {...}}``; casts nothing."""
    kind = obj.get("kind")
    if kind not in _BUILTINS:
        raise SpecError(f"unknown distribution kind {kind!r}")
    unknown = obj.keys() - {"kind", "params"}
    if unknown:
        raise SpecError(f"unknown distribution keys {sorted(unknown)}")
    params = obj.get("params", {})
    if not (isinstance(params, dict) and all(map(_is_real, params.values()))):
        raise SpecError(f"distribution params must map names to numbers, got {params!r}")
    return _BUILTINS[kind](**params)


# ---------------------------------------------------------------------------
# ensemble description
# ---------------------------------------------------------------------------

@dataclass
class EtaSchedule:
    """Truncation level schedule ``n -> eta_n``.

    ``kind="power"`` gives ``eta_n = n**(-value)`` (default exponent 1/8,
    which vanishes slowly enough to keep the tail-moment bounds small at
    desk scales); ``kind="constant"`` gives a fixed level.
    """

    kind: str = "power"
    value: float = 0.125

    def eta(self, n: int) -> float:
        if self.kind == "power":
            return float(n) ** (-self.value)
        if self.kind == "constant":
            return self.value
        raise SpecError(f"unknown eta schedule kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "exponent": self.value}
        return {"kind": "constant", "value": self.value}

    @classmethod
    def from_json(cls, obj: dict) -> "EtaSchedule":
        """Inverse of :meth:`to_json`; an absent kind or exponent takes the default."""
        kind = obj.get("kind", "power")
        key = {"power": "exponent", "constant": "value"}.get(kind)
        if key is None:
            raise SpecError(f"unknown eta schedule kind {kind!r}")
        unknown = obj.keys() - {"kind", key}
        if unknown:
            raise SpecError(f"unknown keys {sorted(unknown)} in a {kind} eta schedule")
        if kind == "power":
            return cls("power", obj.get("exponent", cls.value))
        return cls("constant", obj["value"])


@dataclass
class EnsembleSpec:
    """Reproducible description of one ensemble draw."""

    n: int
    distribution: Distribution
    seed: int
    eta: EtaSchedule = field(default_factory=EtaSchedule)

    def validate(self) -> None:
        if not (_is_int(self.n) and self.n >= 1):
            raise SpecError(f"dimension must be an integer >= 1, got {self.n!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise SpecError(f"seed must be an integer >= 0, got {self.seed!r}")
        eta = self.eta
        if eta.kind not in ("power", "constant"):
            raise SpecError(f"unknown eta schedule kind {eta.kind!r}")
        if not (_is_real(eta.value) and math.isfinite(eta.value)) \
                or (eta.kind == "constant" and not eta.value > 0):
            raise SpecError(f"eta schedule value must be a finite number (positive when "
                            f"constant), got {eta.kind} {eta.value!r}")
        self.distribution.validate()

    def eta_n(self) -> float:
        return self.eta.eta(self.n)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "distribution": self.distribution.to_json(),
            "seed": self.seed,
            "eta": self.eta.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EnsembleSpec":
        # "diagonal_bound" is a setting that no longer exists; old files keep it.
        unknown = obj.keys() - {"n", "distribution", "seed", "eta", "diagonal_bound"}
        if unknown:
            raise SpecError(f"unknown ensemble keys {sorted(unknown)}")
        return cls(
            n=obj["n"],
            distribution=distribution_from_json(obj["distribution"]),
            seed=obj["seed"],
            eta=EtaSchedule.from_json(obj.get("eta", {})),
        )


# ---------------------------------------------------------------------------
# the matrix type
# ---------------------------------------------------------------------------

@dataclass
class SelfDualMatrix:
    """n x n self-dual Hermitian quaternion matrix, stored by coefficients.

    ``coeffs[j, k]`` holds the four (already scaled) coefficients of entry
    ``(j+1, k+1)``; ``scale`` records the ``1/sqrt(n)`` normalization that
    was applied.  Coefficients must be finite; the mirror symmetry and the
    real diagonal are invariants, checked by :meth:`check`.
    """

    coeffs: np.ndarray
    scale: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[2] != 4 \
                or self.coeffs.shape[0] != self.coeffs.shape[1]:
            raise ValueError(f"expected (n, n, 4) coefficients, got {self.coeffs.shape}")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("matrix entries must be finite")
        self.coeffs.setflags(write=False)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def entry(self, j: int, k: int) -> Quaternion:
        """Quaternion entry at 1-based position (j, k)."""
        return Quaternion(*self.coeffs[j - 1, k - 1])

    def entry_norms(self) -> np.ndarray:
        """(n, n) array of quaternion entry norms (scaled values)."""
        return np.sqrt((self.coeffs**2).sum(axis=2))

    def check(self) -> None:
        """Raise ValueError unless the self-dual invariants hold exactly.

        Each tile on or above the diagonal must equal its mirror tile conjugated
        (so the diagonal is real); ``|x - y|`` is symmetric, so that covers the rest.
        """
        co, t = self.coeffs, 64  # t x t entry tiles: no full-size temporary
        for i in range(0, self.n, t):
            for k in range(i, self.n, t):
                mirror = co[k:k + t, i:i + t].transpose(1, 0, 2) * _CONJ_SIGNS
                if not np.all(np.abs(co[i:i + t, k:k + t] - mirror) <= 0.0):
                    raise ValueError("matrix is not self-dual: entry(k,j) != conj(entry(j,k))")

    def with_coeffs(self, coeffs: np.ndarray) -> "SelfDualMatrix":
        return SelfDualMatrix(coeffs, self.scale)


def _assemble(n: int, off: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Full (n, n, 4) coefficient array from row-major upper-triangle and diagonal draws."""
    co = np.zeros((n, n, 4))
    for j in range(n - 1):
        row = off[j * (2 * n - j - 1) // 2:][:n - 1 - j]  # row j starts after j shorter rows
        co[j, j + 1:] = row
        np.multiply(row, _CONJ_SIGNS, out=co[j + 1:, j])
    co[np.arange(n), np.arange(n), 0] = diag
    return co


def sample_general(spec: EnsembleSpec) -> SelfDualMatrix:
    """Draw a self-dual matrix with independent upper-triangle entries.

    The upper triangle is drawn first (row-major order), then the diagonal,
    from ``default_rng(spec.seed)``, so a given spec always produces the
    identical matrix.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    m = n * (n - 1) // 2
    off = spec.distribution.sample_coeffs(rng, m) if m else np.zeros((0, 4))
    diag = spec.distribution.sample_diag(rng, n)
    scale = 1.0 / math.sqrt(n)
    return SelfDualMatrix(_assemble(n, off * scale, diag * scale), scale)


def sample_gse(n: int, seed: int) -> SelfDualMatrix:
    """Gaussian symplectic ensemble draw, scaled by ``1/sqrt(n)``."""
    return sample_general(EnsembleSpec(n=n, distribution=GSECoefficients(), seed=seed))


# ---------------------------------------------------------------------------
# tail-moment diagnostic
# ---------------------------------------------------------------------------

def _moments_rng(spec: EnsembleSpec) -> np.random.Generator:
    # Offset stream: moment estimation never consumes the entry stream.
    return np.random.default_rng(np.random.SeedSequence((spec.seed, _MOMENT_TAG)))


def lindeberg_statistic(spec: EnsembleSpec, eta: float) -> float:
    """Tail-moment statistic ``(1/n^2) sum_jk E ||x_jk||^2 I(||x_jk|| >= eta sqrt n)``.

    For i.i.d. entries this reduces to single-entry expectations (one for the
    off-diagonal law, one for the diagonal), evaluated in closed form when
    the distribution provides one, and otherwise by ``_LINDEBERG_SAMPLES``
    Monte Carlo draws from an offset stream of ``spec.seed``.
    """
    spec.validate()
    if not (eta > 0 and math.isfinite(eta)):
        raise SpecError(f"eta must be positive and finite, got {eta}")
    n = spec.n
    c = eta * math.sqrt(n)
    dist = spec.distribution

    off_tail = dist.tail_second_moment(c)
    if off_tail is None:
        rng = _moments_rng(spec)
        draws = dist.sample_coeffs(rng, _LINDEBERG_SAMPLES)
        sq = (draws**2).sum(axis=1)
        off_tail = float((sq * (np.sqrt(sq) >= c)).mean())

    diag_tail = dist.diag_tail_second_moment(c)
    if diag_tail is None:
        rng = _moments_rng(spec)
        draws = dist.sample_diag(rng, _LINDEBERG_SAMPLES)
        diag_tail = float((draws**2 * (np.abs(draws) >= c)).mean())

    return ((n * n - n) * off_tail + n * diag_tail) / (n * n)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

@dataclass
class StageRecord:
    """Diagnostics for one pipeline stage."""

    name: str
    levy_cube_bound: float
    truncated_count: int = 0
    rank_units: int = 0
    rank_bound: float = 0.0
    centering_shift_norm: float = 0.0
    variance_floor_replacements: int = 0
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class PipelineTrace:
    """Per-stage records plus the matrices needed to verify the bounds."""

    eta_n: float
    threshold: float
    stages: list = field(default_factory=list)
    matrices: list = field(default_factory=list)  # (stage name, SelfDualMatrix)
    final_max_entry_norm: float = 0.0
    entry_bound_envelope: float = 0.0

    def record(self, record: StageRecord, matrix: SelfDualMatrix, keep: bool) -> None:
        self.stages.append(record)
        if keep:
            self.matrices.append((record.name, matrix))

    def to_json(self) -> dict:
        return {
            "eta_n": self.eta_n,
            "threshold": self.threshold,
            "final_max_entry_norm": self.final_max_entry_norm,
            "entry_bound_envelope": self.entry_bound_envelope,
            "stages": [s.to_json() for s in self.stages],
        }


def _levy_cube_bound(old: SelfDualMatrix, new: SelfDualMatrix) -> float:
    # tr(D D^*) / (2n) for the embedded difference equals
    # (1/n) * sum of squared quaternion entry norms of the difference.
    delta = new.coeffs - old.coeffs
    return float((delta**2).sum() / old.n)


def truncate(w: SelfDualMatrix, eta_n: float):
    """Zero every entry with unscaled norm above ``eta_n * sqrt(n)``.

    The truncated count is reported once per symmetric pair.  The recorded
    rank bound is ``rank_units / (2n)`` where ``rank_units`` bounds the
    complex rank of the embedded difference: at most 4 per off-diagonal pair
    and 2 per diagonal entry, and at most 2 per touched quaternion row.
    """
    if not (eta_n > 0 and math.isfinite(eta_n)):
        raise SpecError(f"eta_n must be positive and finite, got {eta_n}")
    n = w.n
    threshold = eta_n * math.sqrt(n) * w.scale  # comparison on stored (scaled) norms
    norms = w.entry_norms()
    mask = norms > threshold
    mask |= mask.T  # mirrored entries have equal norms; keep the pair exact

    coeffs = w.coeffs.copy()
    coeffs[mask] = 0.0
    out = w.with_coeffs(coeffs)

    upper = np.triu(mask)
    truncated_count = int(upper.sum())
    off_pairs = int(np.triu(mask, 1).sum())
    diag_count = truncated_count - off_pairs
    touched = int(np.any(mask, axis=1).sum())
    rank_units = min(4 * off_pairs + 2 * diag_count, 2 * touched, 2 * n)

    record = StageRecord(
        name="truncate",
        levy_cube_bound=_levy_cube_bound(w, out),
        truncated_count=truncated_count,
        rank_units=rank_units,
        rank_bound=rank_units / (2.0 * n),
        details={"eta_n": eta_n, "threshold_unscaled": eta_n * math.sqrt(n)},
    )
    return out, record


def zero_diagonal(w: SelfDualMatrix):
    """Replace the diagonal by zero quaternions."""
    coeffs = w.coeffs.copy()
    idx = np.arange(w.n)
    coeffs[idx, idx] = 0.0
    out = w.with_coeffs(coeffs)
    record = StageRecord(name="zero_diagonal", levy_cube_bound=_levy_cube_bound(w, out))
    return out, record


def _truncated_moments(spec: EnsembleSpec, c: float):
    """(mean 4-vector, second moment) of the truncated unscaled entry."""
    dist = spec.distribution
    mean = dist.truncated_mean(c)
    m2 = dist.truncated_second_moment(c)
    if mean is None or m2 is None:
        rng = _moments_rng(spec)
        draws = dist.sample_coeffs(rng, _MOMENT_SAMPLES)
        inside = np.linalg.norm(draws, axis=1) <= c
        if mean is None:
            mean = (draws * inside[:, None]).mean(axis=0)
        if m2 is None:
            m2 = float(((draws**2).sum(axis=1) * inside).mean())
    return np.asarray(mean, dtype=float), float(m2)


def centralize(w: SelfDualMatrix, truncated_mean: np.ndarray):
    """Subtract the truncated-entry mean from every off-diagonal entry.

    ``truncated_mean`` is the unscaled coefficient 4-vector
    ``E[x * I(||x|| <= eta_n sqrt n)]``; :func:`run_pipeline` takes it from
    the closed form when the distribution provides one, else from a Monte
    Carlo estimate on an offset stream (never the matrix's own entries).
    The record carries its norm.  Self-duality is preserved by subtracting
    the conjugate below the diagonal.
    """
    if not np.all(np.isfinite(truncated_mean)):
        raise SpecError(f"truncated mean must be finite, got {truncated_mean}")
    mu = truncated_mean * w.scale
    coeffs = w.coeffs.copy()
    upper = np.triu_indices(w.n, 1)
    coeffs[upper] -= mu
    coeffs[upper[1], upper[0]] -= mu * _CONJ_SIGNS
    out = w.with_coeffs(coeffs)
    record = StageRecord(
        name="centralize",
        levy_cube_bound=_levy_cube_bound(w, out),
        centering_shift_norm=float(np.linalg.norm(truncated_mean)),
    )
    return out, record


# perfbench/tracing.py wraps the stage under this name too; the alias goes
# when the benchmark tracer is updated.
centralize_stage = centralize


def rescale(w: SelfDualMatrix, sigma_sq: float, seed: int):
    """Divide off-diagonal entries by their post-truncation standard deviation.

    ``sigma_sq`` is the centered truncated variance of an unscaled entry.
    When it falls below 1/2, every off-diagonal pair is instead replaced by
    an independent real +-1 entry (mean 0, variance 1 exactly), drawn from
    an offset stream of ``seed`` and noted in the record.  The diagonal is
    left untouched (it is zeroed by its own stage).
    """
    if not math.isfinite(sigma_sq):
        raise SpecError(f"sigma_sq must be finite, got {sigma_sq}")
    n = w.n
    coeffs = w.coeffs.copy()
    idx = np.arange(n)
    replacements = 0
    if sigma_sq >= 0.5:
        sigma = math.sqrt(sigma_sq)
        diag_saved = coeffs[idx, idx].copy()
        coeffs /= sigma
        coeffs[idx, idx] = diag_saved
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _RESCALE_TAG)))
        m = n * (n - 1) // 2
        signs = rng.choice([-1.0, 1.0], size=m)
        off = np.zeros((m, 4))
        off[:, 0] = signs * w.scale
        diag_saved = coeffs[idx, idx].copy()
        coeffs = _assemble(n, off, np.zeros(n))
        coeffs[idx, idx] = diag_saved
        replacements = m
        sigma = 1.0

    out = w.with_coeffs(coeffs)
    record = StageRecord(
        name="rescale",
        levy_cube_bound=_levy_cube_bound(w, out),
        variance_floor_replacements=replacements,
        details={"sigma": sigma, "sigma_sq_before": sigma_sq,
                 "replacement_stream": f"seed:{seed}/rescale"},
    )
    return out, record


def run_pipeline(spec: EnsembleSpec, w: Optional[SelfDualMatrix] = None,
                 keep_matrices: bool = True):
    """Run truncate -> zero diagonal -> centralize -> rescale with diagnostics.

    ``w`` defaults to a fresh draw of ``spec``; a given ``w`` must have
    ``w.n == spec.n``.  Returns ``(final matrix, PipelineTrace)``.  The
    truncated moments are computed once and handed to the centralize and
    rescale stages.  Every stage output is checked to still be a valid
    self-dual matrix.  With ``keep_matrices`` the trace retains each stage's
    matrix so the Levy/rank inequalities can be verified against eigenvalue
    computations.
    """
    spec.validate()
    if w is None:
        w = sample_general(spec)
    elif w.n != spec.n:
        raise SpecError(f"matrix has n={w.n}, but the spec has n={spec.n}")
    w.check()
    eta_n = spec.eta_n()
    trace = PipelineTrace(eta_n=eta_n, threshold=eta_n * math.sqrt(w.n))
    mean, m2 = _truncated_moments(spec, trace.threshold)
    if keep_matrices:
        trace.matrices.append(("input", w))
    # The stages are looked up per call, so a wrapper installed on the module
    # (the benchmark tracer) sees every stage call.
    for stage, *args in ((truncate, eta_n), (zero_diagonal,), (centralize, mean),
                         (rescale, m2 - float(mean @ mean), spec.seed)):
        w, record = stage(w, *args)
        w.check()
        trace.record(record, w, keep_matrices)

    # structural form of the final matrix: zero diagonal, entries bounded by
    # the post-rescale envelope sqrt(2) * (eta_n sqrt(n) + 1) (or 1 for
    # replaced +-1 entries)
    norms = w.entry_norms() / w.scale
    envelope = max(math.sqrt(2.0) * (trace.threshold + 1.0), 1.0)
    trace.final_max_entry_norm = float(norms.max())
    trace.entry_bound_envelope = envelope
    if trace.final_max_entry_norm > envelope:
        raise ValueError("pipeline output exceeds the entry-norm envelope")
    return w, trace
