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

from ._args import finite_array, integer, is_int, positive, real
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
_TILE = 128  # side of the square tiles in which _hermitian_residual and check read
_MOMENT_SAMPLES = 1_000_000
_LINDEBERG_SAMPLES = 200_000
# rng stream tags so moment estimation / replacement draws never collide
# with the entry stream
_MOMENT_TAG = 0x4D4F4D
_RESCALE_TAG = 0x524553
_ETA_KEYS = {"power": "exponent", "constant": "value"}  # eta schedule kind -> JSON value key


class SpecError(ValueError):
    """An ensemble description violates the moment conditions."""


# ---------------------------------------------------------------------------
# entry distributions
# ---------------------------------------------------------------------------

class Distribution:
    """Base class for entry distributions of the four quaternion coefficients.

    Subclasses draw, in place by :meth:`_fill_coeffs`, unscaled off-diagonal
    coefficient vectors with ``E x = 0`` and ``E ||x||^2 = 1``.  A real diagonal
    value is twice one coefficient (:meth:`sample_diag`), so its second moment is
    1 when the four coefficients share one law, as in every built-in law; a user
    law's diagonal is twice its first coefficient.  Closed-form moments are
    provided where available; ``None`` means the caller falls back to Monte Carlo.
    """

    kind = "base"
    param_names: tuple = ()  # constructor arguments, the law's JSON params

    def sample_coeffs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty((size, 4))
        self._fill_coeffs(rng, out)
        return out

    def sample_diag(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty((size, 1))
        self._fill_coeffs(rng, out)
        return 2.0 * out[:, 0]

    def _fill_coeffs(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Draw ``len(out)`` coefficient vectors into ``out``: the one coefficient draw
        a law defines (:meth:`sample_coeffs` allocates and calls it)."""
        raise NotImplementedError

    def validate(self) -> None:
        return None

    def truncated_mean(self, c: float) -> Optional[np.ndarray]:
        """``E[x * I(||x|| <= c)]`` as a coefficient 4-vector, or None."""
        return None

    def truncated_second_moment(self, c: float) -> Optional[float]:
        """``E[||x||^2 * I(||x|| <= c)]``, or None; by default ``1 - tail``."""
        m = self.tail_second_moment(c)
        return None if m is None else 1.0 - m

    def tail_second_moment(self, c: float) -> Optional[float]:
        """``E[||x||^2 * I(||x|| >= c)]``, or None."""
        return None

    def diag_tail_second_moment(self, c: float) -> Optional[float]:
        """``E[x_jj^2 * I(|x_jj| >= c)]``, or None."""
        return None

    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.param_names}

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params()}


class GSECoefficients(Distribution):
    """Gaussian coefficients: off-diagonal variance 1/4 each, diagonal variance 1."""

    kind = "gse"

    def _fill_coeffs(self, rng, out):
        rng.standard_normal(out=out)  # in place: no draw-sized temporary
        out *= 0.5

    def truncated_mean(self, c):
        return np.zeros(4)

    def tail_second_moment(self, c):
        # ||x||^2 = chi2(4)/4, so E[||x||^2 I(||x|| >= c)] with u = 4c^2 is
        # exp(-u/2) * (u^2/8 + u/2 + 1)
        u = 4.0 * c * c
        return math.exp(-u / 2.0) * (u * u / 8.0 + u / 2.0 + 1.0)

    def diag_tail_second_moment(self, c):
        # standard normal: E[v^2 I(|v| >= c)] = 2 c phi(c) + erfc(c / sqrt 2)
        phi = math.exp(-c * c / 2.0) / math.sqrt(2.0 * math.pi)
        return 2.0 * c * phi + math.erfc(c / math.sqrt(2.0))


class UniformCoefficients(Distribution):
    """Coefficients uniform on [-sqrt(3)/2, sqrt(3)/2] (variance 1/4); diagonal on [-sqrt 3, sqrt 3]."""

    kind = "uniform"
    _half = math.sqrt(3.0) / 2.0

    def _fill_coeffs(self, rng, out):
        # rng.uniform(-h, h)'s bits and stream: -h + 2h u, one double u per entry
        rng.random(out=out)
        out *= 2.0 * self._half
        out -= self._half

    def truncated_mean(self, c):
        return np.zeros(4)

    def tail_second_moment(self, c):
        return 0.0 if c >= math.sqrt(3.0) else None

    def diag_tail_second_moment(self, c):
        b = math.sqrt(3.0)
        if c >= b:
            return 0.0
        return (b**3 - c**3) / (3.0 * b)


class TwoPointCoefficients(Distribution):
    """Coefficients on two points {lo, hi} with P(hi) = p, scaled to variance 1/4.

    The raw law must already have mean zero (no recentering is applied) and
    positive variance.  Truncated and tail moments are exact, by enumeration of
    the 16 coefficient sign patterns; both count a norm equal to ``c``.
    """

    kind = "two_point"
    param_names = ("lo", "hi", "p")

    def __init__(self, lo: float, hi: float, p: float):
        self.lo, self.hi, self.p = (real(v, SpecError, "two-point params must be finite numbers")
                                    for v in (lo, hi, p))
        mean = self.p * self.hi + (1.0 - self.p) * self.lo
        try:
            var = self.p * self.hi**2 + (1.0 - self.p) * self.lo**2 - mean**2
        except OverflowError:  # a float cannot hold the variance
            var = math.inf
        self._mean = mean
        self._scale = 0.5 / math.sqrt(var) if 0 < var < math.inf else float("nan")

    def validate(self):
        if not 0.0 < self.p < 1.0:
            raise SpecError(f"two-point probability must be in (0, 1), got {self.p}")
        spread = max(abs(self.lo), abs(self.hi))
        if abs(self._mean) > 1e-12 * max(spread, 1.0):
            raise SpecError(
                f"two-point law has nonzero mean {self._mean:.3g}; shift it to zero first")
        if not math.isfinite(self._scale):
            raise SpecError("two-point law has zero or unrepresentable variance; "
                            "cannot normalize")

    def _values(self):
        return np.array([self.lo, self.hi]) * self._scale

    def _probs(self):
        return np.array([1.0 - self.p, self.p])

    def _fill_coeffs(self, rng, out):
        # choice(p=...)'s stream: one uniform per entry, hi from the normalized P(lo) up
        cdf = self._probs().cumsum()
        hi = rng.random(out=out) >= cdf[0] / cdf[-1]
        out[...] = self._values()[0]
        out[hi] = self._values()[1]

    def _enumerate(self):
        """(coefficients, probability, squared norm) of each sign pattern."""
        vals = self._values()
        probs = self._probs()
        idx = np.indices((2, 2, 2, 2)).reshape(4, -1).T
        coeffs = vals[idx]                        # (16, 4)
        weight = probs[idx].prod(axis=1)          # (16,)
        return coeffs, weight, (coeffs**2).sum(axis=1)

    def truncated_mean(self, c):
        coeffs, weight, sq = self._enumerate()
        inside = np.sqrt(sq) <= c
        return (coeffs * (weight * inside)[:, None]).sum(axis=0)

    def truncated_second_moment(self, c):
        _, weight, sq = self._enumerate()
        inside = np.sqrt(sq) <= c
        return float((sq * weight * inside).sum())

    def tail_second_moment(self, c):
        _, weight, sq = self._enumerate()
        outside = np.sqrt(sq) >= c
        return float((sq * weight * outside).sum())

    def diag_tail_second_moment(self, c):
        vals = 2.0 * self._values()
        probs = self._probs()
        outside = np.abs(vals) >= c
        return float((vals**2 * probs * outside).sum())


class RademacherCoefficients(TwoPointCoefficients):
    """The symmetric two-point law ``TwoPointCoefficients(-1, 1, 1/2)``: coefficients
    +-1/2, diagonal +-1; its draws keep the streams of ``integers`` and ``choice``."""

    kind = "rademacher"
    param_names = ()

    def __init__(self):
        super().__init__(-1.0, 1.0, 0.5)

    def _fill_coeffs(self, rng, out):
        # the int64 indices choice([-1.0, 1.0]) draws: its stream, 0 -> -0.5, 1 -> 0.5
        out[...] = rng.integers(0, 2, size=out.shape)
        out -= 0.5


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
        draws = self._draw(rng, 100_000)
        m2 = float((draws**2).sum(axis=1).mean())
        if m2 <= 0 or not math.isfinite(m2):
            raise SpecError("user law cannot be variance-normalized")
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0) / math.sqrt(draws.shape[0])
        if np.any(np.abs(mean) > 5 * stderr + 1e-12):
            raise SpecError(f"user law has nonzero coefficient mean {mean}")
        self._scale = 1.0 / math.sqrt(m2)

    def _draw(self, rng, size):
        draws = np.asarray(self.sampler(rng, size), dtype=float)
        if draws.shape != (size, 4):
            raise SpecError(f"user sampler returned shape {draws.shape}, expected ({size}, 4)")
        return draws

    def validate(self):
        self._calibrate()

    def _fill_coeffs(self, rng, out):
        self._calibrate()
        # the sampler always draws (size, 4); a diagonal fill keeps the first column
        np.multiply(self._draw(rng, len(out))[:, :out.shape[1]], self._scale, out=out)

    def to_json(self):
        raise SpecError("user-supplied distributions are not serializable")


_BUILTINS = {law.kind: law for law in (GSECoefficients, RademacherCoefficients,
                                        UniformCoefficients, TwoPointCoefficients)}


def distribution_from_json(obj: dict) -> Distribution:
    """Built-in law from ``{"kind": ..., "params": {...}}``; casts nothing."""
    if not isinstance(obj, dict):
        raise SpecError(f"distribution must be an object, got {obj!r}")
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in _BUILTINS):
        raise SpecError(f"unknown distribution kind {kind!r}")
    unknown = obj.keys() - {"kind", "params"}
    if unknown:
        raise SpecError(f"unknown distribution keys {sorted(unknown)}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SpecError(f"distribution params must be an object, got {params!r}")
    law = _BUILTINS[kind]
    if params.keys() != set(law.param_names):
        raise SpecError(f"a {kind} law takes the params {list(law.param_names)}, "
                        f"got {sorted(params)}")
    return law(**params)


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

    def validate(self) -> float:
        """The value as a float; SpecError unless the kind is known and the value is
        finite (positive when constant)."""
        _eta_key(self.kind)
        return real(self.value, SpecError, f"eta schedule value must be a finite number "
                    f"(positive when constant) for a {self.kind} schedule",
                    positive if self.kind == "constant" else math.isfinite)

    def eta(self, n: int) -> float:
        """``eta_n``; SpecError unless ``n`` is an integer >= 1 and the schedule valid."""
        n = integer(n, SpecError, "n", 1)
        value = self.validate()
        return float(n) ** (-value) if self.kind == "power" else value

    def to_json(self) -> dict:
        return {"kind": self.kind, _eta_key(self.kind): self.value}

    @classmethod
    def from_json(cls, obj: dict) -> "EtaSchedule":
        """Inverse of :meth:`to_json`; an absent kind or exponent takes the default."""
        if not isinstance(obj, dict):
            raise SpecError(f"eta schedule must be an object, got {obj!r}")
        kind = obj.get("kind", "power")
        key = _eta_key(kind)
        unknown = obj.keys() - {"kind", key}
        if unknown:
            raise SpecError(f"unknown keys {sorted(unknown)} in a {kind} eta schedule")
        if kind == "constant" and key not in obj:
            raise SpecError("a constant eta schedule needs a value")
        return cls(kind, obj.get(key, cls.value))


def _eta_key(kind) -> str:
    """The JSON key of an eta schedule's value; SpecError unless ``kind`` is known."""
    if isinstance(kind, str) and kind in _ETA_KEYS:
        return _ETA_KEYS[kind]
    raise SpecError(f"unknown eta schedule kind {kind!r}")


@dataclass
class EnsembleSpec:
    """Reproducible description of one ensemble draw."""

    n: int
    distribution: Distribution
    seed: int
    eta: EtaSchedule = field(default_factory=EtaSchedule)

    def validate(self) -> None:
        integer(self.n, SpecError, "dimension", 1)
        integer(self.seed, SpecError, "seed")
        self.eta.validate()
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
        if not isinstance(obj, dict):
            raise SpecError(f"ensemble must be an object, got {obj!r}")
        # "diagonal_bound" is a setting that no longer exists; old files keep it.
        unknown = obj.keys() - {"n", "distribution", "seed", "eta", "diagonal_bound"}
        if unknown:
            raise SpecError(f"unknown ensemble keys {sorted(unknown)}")
        missing = {"n", "distribution", "seed"} - obj.keys()
        if missing:
            raise SpecError(f"ensemble needs the keys {sorted(missing)}")
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
    was applied.  Coefficients must be finite and the scale positive and
    finite (a ValueError otherwise); the mirror symmetry and the real
    diagonal are invariants, checked by :meth:`check`.
    """

    coeffs: np.ndarray
    scale: float

    def __post_init__(self, copy: bool = True):
        # By default a copy: the caller's array stays writeable, and no alias
        # of it can change the coefficients once they are checked.
        coeffs = (np.array if copy else np.asarray)(self.coeffs, order="C")
        if coeffs.ndim != 3 or coeffs.shape[2] != 4 or coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError(f"expected (n, n, 4) coefficients, got {coeffs.shape}")
        # finite_array converts the copy: text is rejected, not parsed
        self.coeffs = finite_array(coeffs, ValueError, "matrix entries must be finite")
        self.scale = real(self.scale, ValueError, "scale must be positive and finite", positive)
        self.coeffs.setflags(write=False)

    @classmethod
    def _owning(cls, coeffs: np.ndarray, scale: float) -> "SelfDualMatrix":
        """A matrix that takes over ``coeffs``, a new array no one else holds, uncopied."""
        w = cls.__new__(cls)
        w.coeffs, w.scale = coeffs, scale
        w.__post_init__(copy=False)
        return w

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def entry(self, j: int, k: int) -> Quaternion:
        """Quaternion entry at 1-based position (j, k); IndexError unless both are
        integers in ``[1, n]``."""
        if not all(is_int(i) and 1 <= i <= self.n for i in (j, k)):
            raise IndexError(f"entry index ({j!r}, {k!r}) out of range for n={self.n}")
        return Quaternion(*self.coeffs[j - 1, k - 1])

    def entry_norms(self) -> np.ndarray:
        """(n, n) array of quaternion entry norms (scaled values)."""
        return np.sqrt((self.coeffs**2).sum(axis=2))

    def check(self) -> None:
        """Raise ValueError unless the self-dual invariants hold exactly: each
        entry equals the conjugate of its mirror, which makes the diagonal real.
        Reads each tile with its mirror tile, as :func:`_hermitian_residual` does."""
        co, t = self.coeffs, _TILE // 2
        for i in range(0, self.n, t):
            for j in range(i, self.n, t):
                if not (co[i:i + t, j:j + t] == co[j:j + t, i:i + t].transpose(1, 0, 2)
                        * _CONJ_SIGNS).all():
                    raise ValueError("matrix is not self-dual: entry(k,j) != conj(entry(j,k))")


def _hermitian_residual(A: np.ndarray):
    """Exact ``(max |A|, max |A - A^H|)``, reading each tile with its mirror tile.

    ``A`` is finite: complex, or the ``(n, n, 4)`` coefficients of a quaternion
    matrix, whose parts ``a + bi`` and ``c + di`` give the values of its embedding.
    The largest modulus, or the residual, is infinite if it overflows.
    """
    quaternion = A.ndim == 3
    t = _TILE // 2 if quaternion else _TILE  # a quaternion entry is 2 embedded rows
    scale = residual = 0.0
    with np.errstate(over="ignore"):  # past float range is an infinite value, not a warning
        for i in range(0, A.shape[0], t):
            for j in range(i, A.shape[0], t):
                a, b = A[i:i + t, j:j + t], A[j:j + t, i:i + t]
                tiles = (a,) if i == j else (a, b)  # a diagonal tile is its own mirror
                scale = max(scale, *(np.abs(x.view(complex)).max() for x in tiles))
                mirror = b.transpose(1, 0, 2) * _CONJ_SIGNS if quaternion else b.conj().T
                residual = np.maximum(residual, np.abs((a - mirror).view(complex)).max())
    return float(scale), float(residual)


def _assemble(co: np.ndarray, diag: np.ndarray, scale: float) -> np.ndarray:
    """Assemble ``co`` in place, times ``scale``, from the row-major upper-triangle
    draws in its tail (its last n(n-1)/2 entries) and the diagonal draws ``diag``:
    the same bits as from scaled draws (mirror signs are +-1)."""
    n = co.shape[0]
    flat = co.reshape(n * n, 4)
    src = n * (n + 1) // 2
    for j in range(n - 1):
        # row j lands (n+j)(n-j-1)/2 entries before its draws: none unread is overwritten
        np.multiply(flat[src:src + n - 1 - j], scale, out=co[j, j + 1:])
        src += n - 1 - j
    diagonal = flat[::n + 1]
    diagonal[:, 1:] = 0.0
    np.multiply(diag, scale, out=diagonal[:, 0])
    for j in range(n - 1):
        np.multiply(co[j, j + 1:], _CONJ_SIGNS, out=co[j + 1:, j])
    return co


def sample_general(spec: EnsembleSpec) -> SelfDualMatrix:
    """Draw a self-dual matrix with independent upper-triangle entries.

    The upper triangle is drawn first (row-major order), then the diagonal,
    from ``default_rng(spec.seed)``, so a given spec always produces the
    identical matrix.  The triangle is drawn into the tail of the matrix's own
    array and assembled there.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    co = np.zeros((n, n, 4))
    if n > 1:
        spec.distribution._fill_coeffs(rng, co.reshape(n * n, 4)[n * (n + 1) // 2:])
    diag = spec.distribution.sample_diag(rng, n)
    scale = 1.0 / math.sqrt(n)
    return SelfDualMatrix._owning(_assemble(co, diag, scale), scale)


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
    eta = real(eta, SpecError, "eta must be positive and finite", positive)
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


def _stage(name: str, w: SelfDualMatrix, coeffs: np.ndarray, **fields):
    """``(matrix, StageRecord)`` of a stage from ``w`` to the matrix that takes over
    ``coeffs``, a new array; ``fields`` are the record's diagnostics."""
    out = SelfDualMatrix._owning(coeffs, w.scale)
    # tr(D D^*) / (2n) for the embedded difference equals
    # (1/n) * sum of squared quaternion entry norms of the difference.
    delta = out.coeffs - w.coeffs
    return out, StageRecord(name=name, levy_cube_bound=float((delta**2).sum() / w.n), **fields)


def truncate(w: SelfDualMatrix, eta_n: float):
    """Zero every entry with unscaled norm above ``eta_n * sqrt(n)``.

    The truncated count is reported once per symmetric pair.  The recorded
    rank bound is ``rank_units / (2n)`` where ``rank_units`` bounds the
    complex rank of the embedded difference: at most 4 per off-diagonal pair
    and 2 per diagonal entry, and at most 2 per touched quaternion row.
    """
    eta_n = real(eta_n, SpecError, "eta_n must be positive and finite", positive)
    n = w.n
    threshold = eta_n * math.sqrt(n) * w.scale  # comparison on stored (scaled) norms
    norms = w.entry_norms()
    mask = norms > threshold
    mask |= mask.T  # mirrored entries have equal norms; keep the pair exact

    coeffs = w.coeffs.copy()
    coeffs[mask] = 0.0

    upper = np.triu(mask)
    truncated_count = int(upper.sum())
    off_pairs = int(np.triu(mask, 1).sum())
    diag_count = truncated_count - off_pairs
    touched = int(np.any(mask, axis=1).sum())
    rank_units = min(4 * off_pairs + 2 * diag_count, 2 * touched, 2 * n)
    return _stage("truncate", w, coeffs, truncated_count=truncated_count,
                  rank_units=rank_units, rank_bound=rank_units / (2.0 * n),
                  details={"eta_n": eta_n, "threshold_unscaled": eta_n * math.sqrt(n)})


def zero_diagonal(w: SelfDualMatrix):
    """Replace the diagonal by zero quaternions."""
    coeffs = w.coeffs.copy()
    idx = np.arange(w.n)
    coeffs[idx, idx] = 0.0
    return _stage("zero_diagonal", w, coeffs)


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
    truncated_mean = finite_array(truncated_mean, SpecError, "truncated mean must be finite")
    if truncated_mean.shape != (4,):
        raise SpecError(f"truncated mean must be a coefficient 4-vector, got shape "
                        f"{truncated_mean.shape}")
    mu = truncated_mean * w.scale
    coeffs = w.coeffs.copy()
    upper = np.triu_indices(w.n, 1)
    coeffs[upper] -= mu
    coeffs[upper[1], upper[0]] -= mu * _CONJ_SIGNS
    return _stage("centralize", w, coeffs,
                  centering_shift_norm=float(np.linalg.norm(truncated_mean)))


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
    sigma_sq = real(sigma_sq, SpecError, "sigma_sq must be finite")
    seed = integer(seed, SpecError, "seed")
    n = w.n
    replacements = 0
    if sigma_sq >= 0.5:
        sigma = math.sqrt(sigma_sq)
        coeffs = w.coeffs / sigma
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _RESCALE_TAG)))
        m = n * (n - 1) // 2
        coeffs = np.zeros((n, n, 4))  # the signs go to its tail, as sample_general's draws
        coeffs.reshape(n * n, 4)[n * (n + 1) // 2:, 0] = rng.choice([-1.0, 1.0], size=m)
        _assemble(coeffs, np.zeros(n), w.scale)
        replacements = m
        sigma = 1.0
    idx = np.arange(n)
    coeffs[idx, idx] = w.coeffs[idx, idx]
    return _stage("rescale", w, coeffs, variance_floor_replacements=replacements,
                  details={"sigma": sigma, "sigma_sq_before": sigma_sq,
                           "replacement_stream": f"seed:{seed}/rescale"})


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
