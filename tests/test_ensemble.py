import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspectra import ensemble
from quatspectra.ensemble import (EnsembleSpec, EtaSchedule, GSECoefficients,
                                  RademacherCoefficients, SelfDualMatrix,
                                  SpecError, TwoPointCoefficients,
                                  UniformCoefficients, UserCoefficients,
                                  centralize, distribution_from_json,
                                  lindeberg_statistic, rescale, run_pipeline,
                                  sample_general, sample_gse, truncate,
                                  zero_diagonal)
from quatspectra.experiment import check_pipeline_bounds
from quatspectra.quaternion import Quaternion, conjugate
from quatspectra.spectra import ESD, embed, hermitian_eigenvalues, levy_distance

from memtrace import traced_peak
from oracles import (assemble_by_fancy_indexing, assemble_scaled_first,
                     gse_tail_second_moment_by_quadrature, levy_cube_bound_by_embedding,
                     normal_tail_second_moment_by_quadrature,
                     self_dual_check_by_whole_arrays, two_point_truncated_mean)


def spiky_two_point(p=0.05, hi=2.179449):
    """Mean-zero two-point coefficient law with a rare large spike."""
    return TwoPointCoefficients(lo=-p * hi / (1 - p), hi=hi, p=p)


def gse_spec(n, seed, **kw):
    return EnsembleSpec(n=n, distribution=GSECoefficients(), seed=seed, **kw)


def uniform_user_law():
    return UserCoefficients(lambda rng, size: rng.uniform(-1.0, 1.0, size=(size, 4)))


# The four JSON laws and a user law, shared so the user law calibrates once.
_LAWS = [GSECoefficients(), RademacherCoefficients(), UniformCoefficients(),
         TwoPointCoefficients(-1.0, 3.0, 0.25), uniform_user_law()]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_gse_single_entry_is_real_gaussian():
    w = sample_gse(1, seed=2)
    assert w.coeffs.shape == (1, 1, 4)
    assert w.coeffs[0, 0, 1] == w.coeffs[0, 0, 2] == w.coeffs[0, 0, 3] == 0.0
    assert w.scale == 1.0


def test_gse_moments_at_n200():
    n = 200
    w = sample_gse(n, seed=11)
    unscaled = w.coeffs / w.scale
    off = ~np.eye(n, dtype=bool)
    norms_sq = (unscaled**2).sum(axis=2)[off]
    assert norms_sq.mean() == pytest.approx(1.0, abs=0.02)
    diag = unscaled[np.arange(n), np.arange(n), 0]
    assert diag.var() == pytest.approx(1.0, abs=0.3)


def test_sampling_is_deterministic():
    a = sample_gse(40, seed=99)
    b = sample_gse(40, seed=99)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = sample_general(gse_spec(40, 99))
    assert np.array_equal(a.coeffs, c.coeffs)


def _assembled(n, off, diag, scale):
    """``_assemble`` on an array holding the draws ``off`` in its tail."""
    co = np.zeros((n, n, 4))
    co.reshape(n * n, 4)[n * (n + 1) // 2:] = off
    return ensemble._assemble(co, diag, scale)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 515])
@pytest.mark.parametrize("law", _LAWS, ids=lambda law: law.kind)
def test_assembly_matches_fancy_indexing_oracle(law, n):
    # Same bits, signed zeros included: _assemble moves each row of draws,
    # scaled, out of the array's tail and mirrors it with the +-1 signs; one
    # oracle scales the draws first, the other the assembled array.
    w = sample_general(EnsembleSpec(n=n, distribution=law, seed=n))
    rng = np.random.default_rng(n)
    m = n * (n - 1) // 2
    off = law.sample_coeffs(rng, m) if m else np.zeros((0, 4))
    diag = law.sample_diag(rng, n)
    scale = 1 / math.sqrt(n)
    for want in (assemble_scaled_first(n, off, diag, scale),
                 assemble_by_fancy_indexing(n, off, diag, scale)):
        assert np.array_equal(w.coeffs.view(np.uint64), want.view(np.uint64))
    off[::3] = 0.0  # the variance-floor replacement assembles exact zeros
    off[1::3, 1:] = -0.0
    for s in (scale, 1.0):
        assert np.array_equal(_assembled(n, off, diag, s).view(np.uint64),
                              assemble_scaled_first(n, off, diag, s).view(np.uint64))


@pytest.mark.parametrize("size", [0, 1, 7, 1000])
@pytest.mark.parametrize("law", _LAWS + [TwoPointCoefficients(-1.0, 1.0, 0.5),
                                         spiky_two_point()],
                         ids=lambda law: law.kind)
def test_fill_coeffs_matches_sample_coeffs(law, size):
    # _fill_coeffs is the one draw a law defines; sample_coeffs allocates and
    # calls it.  Into an array of NaNs or a new one: the same bits, and the
    # stream left in the same place.
    ref, rng = np.random.default_rng(size), np.random.default_rng(size)
    want = law.sample_coeffs(ref, size)
    out = np.full((size, 4), np.nan)
    law._fill_coeffs(rng, out)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == ref.bit_generator.state


# Each law's diagonal drawn directly by numpy: sample_diag, twice one
# coefficient draw, must match its bits and its stream position.
_DIAG_DRAWS = {
    "gse": lambda law, rng, size: rng.standard_normal(size),
    "uniform": lambda law, rng, size: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size),
    "rademacher": lambda law, rng, size: rng.choice([-1.0, 1.0], size=size),
    "two_point": lambda law, rng, size: 2.0 * rng.choice(law._values(), size=size,
                                                         p=law._probs()),
    "user": lambda law, rng, size: 2.0 * (np.asarray(law.sampler(rng, size)) * law._scale)[:, 0],
}


@pytest.mark.parametrize("size", [0, 1, 7, 1000])
@pytest.mark.parametrize("law", _LAWS + [spiky_two_point(), TwoPointCoefficients(-1.0, 9.0, 0.1)],
                         ids=lambda law: law.kind)
def test_diagonal_is_twice_one_coefficient_draw(law, size):
    law.validate()  # the user law calibrates before either stream is read
    for seed in range(3):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _DIAG_DRAWS[law.kind](law, ref, size)
        got = law.sample_diag(rng, size)
        assert got.shape == (size,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("size", [0, 1, 7, 1000])
def test_uniform_fill_is_rng_uniform(size):
    # The in-place fill -h + 2h u has rng.uniform(-h, h)'s bits and stream.
    half = math.sqrt(3.0) / 2.0
    ref, rng = np.random.default_rng(size), np.random.default_rng(size)
    want = ref.uniform(-half, half, size=(size, 4))
    assert UniformCoefficients().sample_coeffs(rng, size).tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("c", [0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                               1.5, math.sqrt(3.0), 10.0])
def test_rademacher_moments_are_its_closed_forms(c):
    # Rademacher is the symmetric two-point law; its enumerated moments are
    # the closed forms, to the bit, on both sides of the tie c = 1 (a norm
    # equal to c counts as inside and as outside).
    law = RademacherCoefficients()
    assert isinstance(law, TwoPointCoefficients)
    inside, outside = (1.0 if c >= 1.0 else 0.0), (1.0 if c <= 1.0 else 0.0)
    assert law.truncated_mean(c).tobytes() == np.zeros(4).tobytes()
    got = [law.truncated_second_moment(c), law.tail_second_moment(c),
           law.diag_tail_second_moment(c)]
    assert all(type(m) is float for m in got)
    assert np.array(got).tobytes() == np.array([inside, outside, outside]).tobytes()


def test_coefficient_draws_keep_their_stream():
    # Frozen from the rng.choice / standard_normal draws these laws first
    # used: the same values and the same next uniform, so sampling and the
    # benchmark's reference sweeps stay reproducible.
    rng = np.random.default_rng(7)
    assert GSECoefficients().sample_coeffs(rng, 4)[0].tolist() == [
        0.0006150766787412871, 0.14937276875423494,
        -0.1370689276811088, -0.4452959193786371]
    assert rng.random() == 0.9955002834343927
    rng = np.random.default_rng(7)
    assert (RademacherCoefficients().sample_coeffs(rng, 4).ravel() > 0).tolist() == [
        1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1]
    assert rng.random() == 0.7970694287520462
    for law in (TwoPointCoefficients(-1.0, 3.0, 0.25), spiky_two_point(p=0.3)):
        rng = np.random.default_rng(7)
        draws = law.sample_coeffs(rng, 4).ravel()
        assert set(draws) == set(law._values())
        assert (draws == law._values()[1]).tolist() == [
            0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert rng.random() == 0.9955002834343927


@pytest.mark.parametrize("result", [
    lambda size: np.zeros(4 * size),          # flat
    lambda size: np.zeros((size + 1, 4)),     # extra rows
    lambda size: np.zeros((1, 4)),            # would broadcast into the array
    lambda size: np.zeros((size, 3)),
], ids=["flat", "extra-rows", "one-row", "three-columns"])
def test_user_sampler_of_the_wrong_shape_is_a_spec_error(result):
    # Right for the calibration draw, wrong for the matrix's own draws.
    law = UserCoefficients(lambda rng, size: rng.uniform(-1.0, 1.0, size=(size, 4))
                           if size == 100_000 else result(size))
    for fn in (lambda: law.sample_coeffs(np.random.default_rng(0), 6),
               lambda: sample_general(EnsembleSpec(n=4, distribution=law, seed=0))):
        with pytest.raises(SpecError, match=r"user sampler returned shape .*, expected \(6, 4\)"):
            fn()


def test_self_dual_invariants_hold():
    for dist in (GSECoefficients(), RademacherCoefficients(),
                 UniformCoefficients(), spiky_two_point()):
        w = sample_general(EnsembleSpec(n=15, distribution=dist, seed=5))
        w.check()
        assert w.scale == pytest.approx(1 / math.sqrt(15))


def test_self_dual_check_rejects_bad_matrices():
    co = np.zeros((2, 2, 4))
    co[0, 1, 0] = 1.0  # mirror missing
    with pytest.raises(ValueError):
        SelfDualMatrix(co, 1.0).check()
    co2 = np.zeros((2, 2, 4))
    co2[0, 0, 1] = 1.0  # imaginary diagonal
    with pytest.raises(ValueError):
        SelfDualMatrix(co2, 1.0).check()


def _self_dual_check_outcome(co):
    try:
        SelfDualMatrix(co, 1.0).check()
    except ValueError as exc:
        return str(exc)
    return None


def _perturbed_coeffs(co):
    """Copies of ``co`` with one coefficient changed on, above or below the diagonal.

    Each change is made alone (breaking the mirror unless it is a sign of
    zero) and together with the matching change of the mirror entry.
    """
    n = co.shape[0]
    edge = [j for j in (0, 63, 64, n // 2, n - 1) if j < n]  # the check reads 64 x 64 tiles
    cells = set(itertools.product(edge, edge))
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    for (j, k), c in itertools.product(sorted(cells), range(4)):
        x = co[j, k, c]
        for value in (np.nextafter(x, np.inf), -x, 0.0, -0.0, x + 1.0):
            for mirror in (False, True):
                out = co.copy()
                out[j, k, c] = value
                if mirror:
                    out[k, j, c] = value * signs[c]
                yield out


@pytest.mark.parametrize("n", [1, 2, 3, 50, 64, 65, 130])
def test_self_dual_check_matches_whole_array_oracle(n):
    co = sample_gse(n, seed=n).coeffs.copy()
    # exact zeros of both signs in the mirrored pairs and on the diagonal
    co[0, -1, 2], co[-1, 0, 2] = -0.0, 0.0
    co[-1, -1, 1:] = -0.0
    outcomes = []
    for bad in itertools.chain([co], _perturbed_coeffs(co)):
        expected = self_dual_check_by_whole_arrays(bad)
        assert _self_dual_check_outcome(bad) == expected
        outcomes.append(expected)
    assert outcomes[0] is None
    assert "matrix is not self-dual: entry(k,j) != conj(entry(j,k))" in outcomes
    assert None in outcomes[1:]
    # an imaginary diagonal part breaks the mirror test before the diagonal one
    co[0, 0, 3] = 0.5
    assert _self_dual_check_outcome(co) == self_dual_check_by_whole_arrays(co) \
        == "matrix is not self-dual: entry(k,j) != conj(entry(j,k))"


def test_self_dual_check_needs_no_full_size_temporary():
    w = sample_gse(300, seed=22)
    assert traced_peak(w.check) < 0.25 * w.coeffs.nbytes


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0, 0), (-1, -1, -1), (0, -1, 2)],
                         ids=["first", "last", "corner"])
def test_matrix_rejects_a_non_finite_entry(bad, where):
    co = sample_gse(5, seed=1).coeffs.copy()
    co[where] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        SelfDualMatrix(co, 1.0)
    assert SelfDualMatrix(np.zeros((0, 0, 4)), 1.0).n == 0


def test_matrix_rejects_text_coefficients():
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        SelfDualMatrix(np.full((1, 1, 4), "1"), 1.0)


def test_matrix_leaves_the_callers_array_writeable():
    co = np.zeros((2, 2, 4))
    w = SelfDualMatrix(co, 1.0)
    co[0, 0, 0] = 1.0
    assert w.coeffs[0, 0, 0] == 0.0 and not w.coeffs.flags.writeable


def test_matrix_coefficients_do_not_change_through_a_view():
    base = np.zeros((2, 2, 4))
    w = SelfDualMatrix(base[:], 1.0)
    base[0, 1, 0] = np.nan
    assert np.isfinite(w.coeffs).all()


def test_sample_general_hands_its_array_over_without_a_copy():
    # GSE draws go straight into the tail of the matrix's own array and are
    # assembled there: one coefficient array and the diagonal.  A separate
    # triangle would add 0.5 coefficient arrays, a copy of the array 1.
    for n in (300, 400, 800):
        w = sample_gse(n, seed=23)
        assert traced_peak(lambda: sample_gse(n, seed=23)) <= 1.02 * w.coeffs.nbytes
        assert not w.coeffs.flags.writeable
    # The uniform law fills the tail in place too.  The others hold at most
    # half an array beside it while they sample: 1.5 arrays for Rademacher's
    # integers and the user law's draws, 1.06 for two-point's mask.
    for law in _LAWS[1:]:
        spec = EnsembleSpec(n=300, distribution=law, seed=23)
        sample_general(spec)  # the user law calibrates on first use
        bound = 1.05 if law.kind == "uniform" else 1.55
        assert traced_peak(lambda: sample_general(spec)) <= bound * 32 * 300 ** 2


def test_entry_accessor_is_one_based_conjugate_mirror():
    w = sample_gse(5, seed=3)
    x = w.entry(1, 4)
    y = w.entry(4, 1)
    assert y == conjugate(x)


@pytest.mark.parametrize("j, k", [(0, 1), (1, 0), (-1, 1), (1, -1), (6, 1), (1, 6),
                                  (True, 1), (1, True), (1.5, 1), (1, 1.5)])
def test_entry_rejects_an_index_outside_one_to_n(j, k):
    # 0 and -1 would wrap to the last row, True would be read as 1.
    w = sample_gse(5, seed=3)
    with pytest.raises(IndexError, match="out of range for n=5"):
        w.entry(j, k)
    assert w.entry(5, 5) == Quaternion(*w.coeffs[4, 4])


def test_rademacher_entry_norms_are_exactly_one():
    w = sample_general(EnsembleSpec(n=20, distribution=RademacherCoefficients(),
                                    seed=8))
    unscaled = w.coeffs / w.scale
    off = ~np.eye(20, dtype=bool)
    norms_sq = (unscaled**2).sum(axis=2)[off]
    assert np.all(norms_sq == 1.0)
    assert np.all(np.isin(np.abs(unscaled[off]), 0.5))


def test_uniform_coefficient_law():
    # Var(U[-h, h]) = h^2 / 3 = 1/4 for h = sqrt(3)/2
    h = math.sqrt(3) / 2
    assert h * h / 3 == pytest.approx(0.25, rel=1e-15)
    w = sample_general(EnsembleSpec(n=60, distribution=UniformCoefficients(),
                                    seed=13))
    unscaled = w.coeffs / w.scale
    off = ~np.eye(60, dtype=bool)
    vals = unscaled[off]
    assert np.abs(vals).max() <= h
    assert vals.var() == pytest.approx(0.25, abs=0.01)
    assert (vals**2).sum(axis=1).mean() == pytest.approx(1.0, abs=0.03)


def test_two_point_requires_zero_mean():
    with pytest.raises(SpecError):
        sample_general(EnsembleSpec(
            n=4, distribution=TwoPointCoefficients(lo=0.5, hi=1.0, p=0.5), seed=0))
    with pytest.raises(SpecError):
        TwoPointCoefficients(lo=0.0, hi=0.0, p=0.5).validate()
    with pytest.raises(SpecError):
        TwoPointCoefficients(lo=-1.0, hi=1.0, p=1.5).validate()


def test_user_distribution_normalized_and_validated():
    dist = UserCoefficients(lambda rng, size: 3.0 * rng.standard_normal((size, 4)))
    w = sample_general(EnsembleSpec(n=40, distribution=dist, seed=21))
    unscaled = w.coeffs / w.scale
    off = ~np.eye(40, dtype=bool)
    assert (unscaled[off]**2).sum(axis=1).mean() == pytest.approx(1.0, abs=0.05)

    shifted = UserCoefficients(
        lambda rng, size: 1.0 + rng.standard_normal((size, 4)))
    with pytest.raises(SpecError):
        shifted.validate()
    with pytest.raises(SpecError):
        UserCoefficients(lambda rng, size: 3.0 * rng.standard_normal((size, 4))).to_json()


def test_distribution_json_roundtrip():
    for dist in (GSECoefficients(), RademacherCoefficients(),
                 UniformCoefficients(), spiky_two_point()):
        clone = distribution_from_json(dist.to_json())
        assert clone.kind == dist.kind
    assert RademacherCoefficients().to_json() == {"kind": "rademacher", "params": {}}
    with pytest.raises(SpecError):
        distribution_from_json({"kind": "cauchy"})


def test_ensemble_spec_json_roundtrip():
    spec = EnsembleSpec(n=12, distribution=spiky_two_point(), seed=77,
                        eta=EtaSchedule("constant", 0.4))
    clone = EnsembleSpec.from_json(spec.to_json())
    assert clone.n == 12 and clone.seed == 77
    assert clone.eta.eta(50) == 0.4
    assert np.array_equal(sample_general(spec).coeffs,
                          sample_general(clone).coeffs)


def test_ensemble_spec_json_has_no_diagonal_bound():
    spec = gse_spec(5, 3)
    obj = spec.to_json()
    assert "diagonal_bound" not in obj
    clone = EnsembleSpec.from_json({**obj, "diagonal_bound": 4.0})
    assert clone.to_json() == obj


def test_eta_schedule():
    power = EtaSchedule("power", 0.125)
    assert power.eta(256) == pytest.approx(256 ** -0.125)
    assert EtaSchedule.from_json(power.to_json()).eta(10) == power.eta(10)
    with pytest.raises(SpecError):
        EtaSchedule("exp", 1.0).eta(10)


def test_eta_schedule_json_names_its_own_kind():
    for eta, obj in ((EtaSchedule("power", 0.25), {"kind": "power", "exponent": 0.25}),
                     (EtaSchedule("constant", 0.3), {"kind": "constant", "value": 0.3})):
        assert eta.to_json() == obj
        assert EtaSchedule.from_json(obj) == eta
    with pytest.raises(SpecError, match="unknown eta schedule kind 'exp'"):
        EtaSchedule("exp", 1.0).to_json()  # not written as a constant schedule


@pytest.mark.parametrize("n", [0, -1, True])
def test_eta_rejects_a_dimension_that_is_not_an_integer_from_one(n):
    with pytest.raises(SpecError, match="n must be an integer >= 1"):
        EtaSchedule().eta(n)


@pytest.mark.parametrize("eta", [
    EtaSchedule("power", math.nan),
    EtaSchedule("power", math.inf),
    EtaSchedule("constant", -1.0),
    EtaSchedule("constant", 0.0),
    EtaSchedule("constant", math.nan),
    EtaSchedule("exp", 1.0),
    EtaSchedule("power", 10**400),
])
def test_spec_rejects_invalid_eta_schedule(eta):
    spec = gse_spec(3, 0, eta=eta)
    with pytest.raises(SpecError, match="eta schedule"):
        spec.validate()
    with pytest.raises(SpecError, match="eta schedule"):
        sample_general(spec)
    with pytest.raises(SpecError, match="eta schedule"):  # a schedule built directly
        eta.eta(4)


@pytest.mark.parametrize("n, seed", [
    (2.5, 0), ("3", 0), (True, 0), (3, -1), (3, 1.5), (3, "1"), (3, None),
])
def test_spec_rejects_non_integer_dimension_or_negative_seed(n, seed):
    spec = EnsembleSpec(n=n, distribution=GSECoefficients(), seed=seed)
    with pytest.raises(SpecError):
        spec.validate()
    with pytest.raises(SpecError):
        sample_general(spec)


# ---------------------------------------------------------------------------
# tail-moment diagnostic
# ---------------------------------------------------------------------------

def test_lindeberg_zero_for_bounded_beyond_threshold():
    spec = EnsembleSpec(n=5, distribution=RademacherCoefficients(), seed=0)
    # ||x|| = 1 and eta sqrt(n) = 0.5 * sqrt(5) > 1: indicator never fires
    assert lindeberg_statistic(spec, eta=0.5) == 0.0


def test_lindeberg_one_when_threshold_below_bound():
    spec = EnsembleSpec(n=3, distribution=RademacherCoefficients(), seed=0)
    # eta sqrt(n) < 1 = ||x||: every entry counts with full weight
    assert lindeberg_statistic(spec, eta=0.5) == pytest.approx(1.0)


def test_lindeberg_gse_matches_quadrature_oracle():
    spec = gse_spec(100, 0)
    got = lindeberg_statistic(spec, eta=0.5)
    c = 0.5 * math.sqrt(100)
    assert got <= 1e-6
    off_weight = (100 * 100 - 100) / (100 * 100)
    assert got == pytest.approx(off_weight * gse_tail_second_moment_by_quadrature(c)
                                + 0.01 * normal_tail_second_moment_by_quadrature(c),
                                rel=1e-6, abs=1e-25)


@pytest.mark.parametrize("c", np.linspace(0.0, 8.0, 17))
def test_gse_diag_tail_matches_quadrature_oracle(c):
    got = GSECoefficients().diag_tail_second_moment(c)
    assert got == pytest.approx(normal_tail_second_moment_by_quadrature(c), rel=1e-10)


def test_cli_import_leaves_scipy_unloaded():
    # Importing scipy would take most of a CLI call's start-up time.
    src = str(Path(ensemble.__file__).resolve().parent.parent)
    code = "import sys, quatspectra.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_lindeberg_vanishing_eta_sequence_decreases():
    values = []
    for n in (100, 1000, 10000):
        spec = gse_spec(n, 0)
        values.append(lindeberg_statistic(spec, eta=spec.eta_n()))
    assert values[0] > values[1] > values[2] >= 0.0


def test_lindeberg_requires_positive_eta():
    with pytest.raises(ValueError):
        lindeberg_statistic(gse_spec(10, 0), eta=0.0)
    for eta in (math.nan, math.inf):
        with pytest.raises(SpecError):
            lindeberg_statistic(gse_spec(10, 0), eta=eta)


def test_lindeberg_validates_the_spec():
    # n = 0 would reach the division by n**2.
    with pytest.raises(SpecError, match="dimension"):
        lindeberg_statistic(gse_spec(0, 0), eta=0.5)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def test_truncate_noop_when_everything_within_threshold():
    w = sample_gse(30, seed=1)
    out, record = truncate(w, eta_n=5.0)
    assert np.array_equal(out.coeffs, w.coeffs)
    assert record.truncated_count == 0
    assert record.rank_bound == 0.0
    assert record.levy_cube_bound == 0.0


def test_truncate_keeps_a_norm_equal_to_the_threshold():
    # Rademacher at n = 4 with eta 0.5: every entry norm and the threshold are
    # exactly 0.5.  The two-point moments count a norm equal to c as inside,
    # so truncation must keep it.
    spec = EnsembleSpec(n=4, distribution=RademacherCoefficients(), seed=3,
                        eta=EtaSchedule("constant", 0.5))
    w = sample_general(spec)
    assert np.all(w.entry_norms() == 0.5)
    out, record = truncate(w, spec.eta.eta(spec.n))
    assert record.truncated_count == 0
    assert np.array_equal(out.coeffs, w.coeffs)


def test_truncate_single_pair_bounds_esd_distance():
    n = 6
    w = sample_gse(n, seed=2)
    co = w.coeffs.copy()
    co[0, 1] = np.array([5.0, 4.0, 3.0, 2.0]) * w.scale
    co[1, 0] = co[0, 1] * np.array([1, -1, -1, -1])
    w = SelfDualMatrix(co, w.scale)

    out, record = truncate(w, eta_n=2.0)  # threshold 2 sqrt(6) < norm ~7.35
    assert record.truncated_count == 1
    assert record.rank_units == 4
    assert record.rank_bound == pytest.approx(4 / (2 * n))
    assert np.all(out.coeffs[0, 1] == 0.0) and np.all(out.coeffs[1, 0] == 0.0)

    before = hermitian_eigenvalues(embed(w))
    after = hermitian_eigenvalues(embed(out))
    grid = np.sort(np.concatenate([before, after]))
    f = ESD(before)
    g = ESD(after)
    sup = np.max(np.abs(f.cdf(grid) - g.cdf(grid)))
    assert sup <= record.rank_bound


def test_truncate_gse_tail_count_is_tiny():
    n = 500
    w = sample_gse(n, seed=3)
    _, record = truncate(w, eta_n=0.5)
    assert record.truncated_count / n**2 <= 1e-4


def test_truncate_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        truncate(sample_gse(4, 0), eta_n=0.0)
    # a NaN level compares False against every norm and would truncate nothing
    for eta_n in (math.nan, math.inf):
        with pytest.raises(SpecError):
            truncate(sample_gse(4, 0), eta_n=eta_n)


def test_zero_diagonal_bounds():
    w = sample_gse(10, seed=4)
    out, record = zero_diagonal(w)
    diag = out.coeffs[np.arange(10), np.arange(10)]
    assert np.all(diag == 0.0)
    again, record2 = zero_diagonal(out)
    assert record2.levy_cube_bound == 0.0

    # constant diagonal c / sqrt(n) gives exactly c^2 / n
    n, c = 8, 1.7
    co = np.zeros((n, n, 4))
    co[np.arange(n), np.arange(n), 0] = c / math.sqrt(n)
    w2 = SelfDualMatrix(co, 1 / math.sqrt(n))
    _, record3 = zero_diagonal(w2)
    assert record3.levy_cube_bound == pytest.approx(c * c / n, rel=1e-12)


def test_zero_diagonal_levy_bound_after_truncation():
    spec = gse_spec(60, 6, eta=EtaSchedule("constant", 0.9))
    w = sample_general(spec)
    trunc, _ = truncate(w, spec.eta_n())
    out, record = zero_diagonal(trunc)
    assert record.levy_cube_bound <= spec.eta_n() ** 2
    dist = levy_distance(ESD(hermitian_eigenvalues(embed(trunc))),
                         ESD(hermitian_eigenvalues(embed(out))))
    assert dist**3 <= record.levy_cube_bound + 4e-6


def test_centralize_symmetric_law_is_identity():
    spec = gse_spec(25, 7)
    w = sample_general(spec)
    out, _ = centralize(w, spec.distribution.truncated_mean(spec.eta_n() * 5.0))
    assert np.array_equal(out.coeffs, w.coeffs)


def test_centralize_two_point_matches_enumeration_oracle():
    dist = spiky_two_point(p=0.2, hi=1.0)
    spec = EnsembleSpec(n=10, distribution=dist, seed=9,
                        eta=EtaSchedule("constant", 0.3))
    w = sample_general(spec)
    c = spec.eta_n() * math.sqrt(10)
    out, _ = centralize(w, dist.truncated_mean(c))
    out.check()

    values = np.array([dist.lo, dist.hi]) * dist._scale
    probs = np.array([1 - dist.p, dist.p])
    mu = two_point_truncated_mean(values, probs, c)
    assert np.linalg.norm(mu) > 0  # asymmetric law: the shift is real
    delta = (w.coeffs - out.coeffs)[0, 1] / w.scale
    assert delta == pytest.approx(mu, rel=1e-12)
    delta_mirror = (w.coeffs - out.coeffs)[1, 0] / w.scale
    assert delta_mirror == pytest.approx(mu * np.array([1, -1, -1, -1]), rel=1e-12)


def test_centralize_record_is_the_pipeline_stage_record():
    spec = EnsembleSpec(n=10, distribution=spiky_two_point(p=0.2, hi=1.0), seed=9,
                        eta=EtaSchedule("constant", 0.3))
    staged, _ = truncate(sample_general(spec), spec.eta_n())
    staged, _ = zero_diagonal(staged)
    c = spec.eta_n() * math.sqrt(10)
    _, record = centralize(staged, spec.distribution.truncated_mean(c))
    _, trace = run_pipeline(spec, keep_matrices=False)
    assert record.centering_shift_norm > 0
    assert record.to_json() == trace.stages[2].to_json()


@pytest.mark.parametrize("mean", [0.1, np.zeros(2), np.full((1, 4), 0.1), np.zeros((2, 4))],
                         ids=["scalar", "(2,)", "(1, 4)", "(2, 4)"])
def test_centralize_takes_only_a_coefficient_four_vector(mean):
    # A scalar or a (1, 4) mean would broadcast over the entries, so the shift
    # applied would not be the one whose norm the record carries.
    w = sample_gse(4, 0)
    with pytest.raises(SpecError, match="coefficient 4-vector"):
        centralize(w, mean)
    _, record = centralize(w, [0.1, 0.0, 0.0, 0.0])
    assert record.centering_shift_norm == 0.1


def test_centering_bound_consistent_with_tail_statistic():
    # The centering stage's recorded Levy bound is controlled by the
    # tail-moment statistic: bound <= stat / (eta^2 (n-1)), via
    # ||E x~||^2 <= tail / (eta^2 n) and stat >= (n-1) tail / n.
    n = 12
    dist = spiky_two_point(p=0.2, hi=1.0)
    spec = EnsembleSpec(n=n, distribution=dist, seed=14,
                        eta=EtaSchedule("constant", 0.3))
    _, trace = run_pipeline(spec, keep_matrices=False)
    stage = {s.name: s for s in trace.stages}["centralize"]
    stat = lindeberg_statistic(spec, eta=spec.eta_n())
    assert stage.centering_shift_norm > 0
    assert stage.levy_cube_bound <= stat / (spec.eta_n() ** 2 * (n - 1)) + 1e-15


def test_rescale_pure_division_when_variance_high():
    spec = gse_spec(20, 10, eta=EtaSchedule("constant", 5.0))
    w = sample_general(spec)
    wz, _ = zero_diagonal(w)
    c = spec.eta_n() * math.sqrt(20)
    out, record = rescale(wz, spec.distribution.truncated_second_moment(c), spec.seed)
    assert record.variance_floor_replacements == 0
    sigma = record.details["sigma"]
    assert sigma == pytest.approx(1.0, abs=1e-6)
    off = ~np.eye(20, dtype=bool)
    assert np.allclose(out.coeffs[off], wz.coeffs[off] / sigma, rtol=0, atol=0)


def test_rescale_replaces_all_pairs_when_variance_floors():
    n = 10
    dist = spiky_two_point()
    spec = EnsembleSpec(n=n, distribution=dist, seed=11,
                        eta=EtaSchedule("constant", 0.3))
    c = spec.eta_n() * math.sqrt(n)
    sigma_sq = dist.truncated_second_moment(c) \
        - np.linalg.norm(dist.truncated_mean(c)) ** 2
    assert sigma_sq < 0.5  # spike removed: variance collapses

    w = sample_general(spec)
    staged, _ = truncate(w, spec.eta_n())
    staged, _ = zero_diagonal(staged)
    staged, _ = centralize(staged, dist.truncated_mean(c))
    out, record = rescale(staged, sigma_sq, spec.seed)
    out.check()
    assert record.variance_floor_replacements == n * (n - 1) // 2

    unscaled = out.coeffs / out.scale
    off = ~np.eye(n, dtype=bool)
    assert np.all(np.isin(unscaled[off][:, 0], [-1.0, 1.0]))
    assert np.all(unscaled[off][:, 1:] == 0.0)
    vals = unscaled[np.triu_indices(n, 1)][:, 0]
    assert np.all(vals**2 == 1.0)  # variance 1 exactly


@pytest.mark.parametrize("sigma_sq", [2.0, 0.5, 0.25])
def test_rescale_leaves_the_diagonal_untouched(sigma_sq):
    # Both branches, division (sigma_sq >= 1/2) and replacement, on a matrix
    # whose diagonal is not zero: the diagonal keeps its bits.
    n = 9
    w = sample_gse(n, seed=4)
    idx = np.arange(n)
    assert np.all(w.coeffs[idx, idx, 0] != 0.0)
    out, record = rescale(w, sigma_sq, 0)
    assert record.variance_floor_replacements == (0 if sigma_sq >= 0.5 else n * (n - 1) // 2)
    assert np.array_equal(out.coeffs[idx, idx].view(np.uint64),
                          w.coeffs[idx, idx].view(np.uint64))
    if sigma_sq >= 0.5:
        off = ~np.eye(n, dtype=bool)
        want = w.coeffs[off] / math.sqrt(sigma_sq)
        assert np.array_equal(out.coeffs[off].view(np.uint64), want.view(np.uint64))


def test_full_pipeline_gse_moments():
    spec = gse_spec(500, 12)
    final, trace = run_pipeline(spec, keep_matrices=False)
    final.check()
    unscaled = final.coeffs / final.scale
    off = np.triu_indices(500, 1)
    entries = unscaled[off]
    count = entries.shape[0]
    assert np.abs(entries.mean(axis=0)).max() <= 3 / math.sqrt(count)
    assert (entries**2).sum(axis=1).mean() == pytest.approx(1.0, abs=0.05)
    diag = unscaled[np.arange(500), np.arange(500)]
    assert np.all(diag == 0.0)
    assert [s.name for s in trace.stages] == \
        ["truncate", "zero_diagonal", "centralize", "rescale"]


def test_pipeline_is_deterministic():
    spec = EnsembleSpec(n=12, distribution=spiky_two_point(), seed=13,
                        eta=EtaSchedule("constant", 0.3))
    a, ta = run_pipeline(spec)
    b, tb = run_pipeline(spec)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert ta.to_json() == tb.to_json()


# The constant level truncates; rescale then floors sigma at n = 7 and divides at n = 50.
@pytest.mark.parametrize("eta", [EtaSchedule(), EtaSchedule("constant", 0.2)],
                         ids=["power", "constant"])
@pytest.mark.parametrize("law", _LAWS[:4], ids=lambda law: law.kind)
def test_stage_levy_bounds_match_the_embedded_difference(law, eta):
    for n in (1, 7, 50):
        spec = EnsembleSpec(n=n, distribution=law, seed=n, eta=eta)
        _, trace = run_pipeline(spec, keep_matrices=True)
        for record, (_, old), (_, new) in zip(trace.stages, trace.matrices,
                                              trace.matrices[1:]):
            assert math.isclose(record.levy_cube_bound,
                                levy_cube_bound_by_embedding(old, new), rel_tol=1e-12)


def test_pipeline_estimates_truncated_moments_once():
    # A law without closed-form truncated moments is estimated from one
    # Monte Carlo batch, shared by the centralize and rescale stages.
    sizes = []

    def sampler(rng, size):
        sizes.append(size)
        return rng.uniform(-1.0, 1.0, size=(size, 4))

    spec = EnsembleSpec(n=6, distribution=UserCoefficients(sampler), seed=4,
                        eta=EtaSchedule("constant", 0.3))
    run_pipeline(spec, keep_matrices=False)
    assert sizes.count(ensemble._MOMENT_SAMPLES) == 1


def test_pipeline_rejects_a_draw_of_another_size():
    # The truncation level comes from spec.n: a spec with n=10 would cut a
    # 50 x 50 draw at eta_n = 10**-0.125 instead of 50**-0.125.
    law = TwoPointCoefficients(lo=-1.0, hi=9.0, p=0.1)
    spec = EnsembleSpec(n=10, distribution=law, seed=3)
    w = sample_general(EnsembleSpec(n=50, distribution=law, seed=3))
    with pytest.raises(SpecError, match="n=50"):
        run_pipeline(spec, w)
    with pytest.raises(SpecError, match="n=50"):
        check_pipeline_bounds(spec, w)


def test_pipeline_final_entry_bound():
    # post-rescale envelope: sqrt(2) * (eta_n sqrt(n) + 1), or 1 for replaced
    for seed in (1, 2):
        spec = EnsembleSpec(n=30, distribution=spiky_two_point(), seed=seed,
                            eta=EtaSchedule("constant", 0.4))
        final, trace = run_pipeline(spec)
        norms = (final.coeffs / final.scale)
        norms = np.sqrt((norms**2).sum(axis=2))
        envelope = max(math.sqrt(2) * (trace.threshold + 1.0), 1.0)
        assert norms.max() <= envelope


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _raises_value_error(fn, *args):
    """``fn(*args)`` raises ``ValueError`` (or a subclass), not ``LinAlgError``."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert not isinstance(info.value, np.linalg.LinAlgError), info.value


@given(st.data())
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ensemble_rejects_non_finite_input(data):
    bad = data.draw(_NON_FINITE, label="bad")
    n = data.draw(st.integers(1, 6), label="n")
    spec = gse_spec(n, n)
    w = sample_general(spec)
    co = w.coeffs.copy()
    co[tuple(data.draw(st.integers(0, d - 1)) for d in co.shape)] = bad
    _raises_value_error(SelfDualMatrix, co, w.scale)

    mean = np.zeros(4)
    mean[data.draw(st.integers(0, 3), label="component")] = bad
    _raises_value_error(truncate, w, bad)
    _raises_value_error(centralize, w, mean)
    _raises_value_error(rescale, w, bad, 0)
    _raises_value_error(lindeberg_statistic, spec, bad)

    key = data.draw(st.sampled_from(["lo", "hi", "p"]), label="param")
    params = {"lo": -1.0, "hi": 1.0, "p": 0.5, key: bad}
    # a non-finite two-point param is rejected when the law is built
    _raises_value_error(distribution_from_json, {"kind": "two_point", "params": params})
    _raises_value_error(TwoPointCoefficients, *params.values())
    law = UserCoefficients(lambda rng, size: np.full((size, 4), bad))
    _raises_value_error(sample_general, EnsembleSpec(n=n, distribution=law, seed=0))
    _raises_value_error(run_pipeline, EnsembleSpec(n=n, distribution=law, seed=0), w)
    kind = data.draw(st.sampled_from(["power", "constant"]), label="eta kind")
    bad_eta = EnsembleSpec(n=n, distribution=GSECoefficients(), seed=0,
                           eta=EtaSchedule(kind, bad))
    for fn in (sample_general, run_pipeline, lambda s: lindeberg_statistic(s, 0.5)):
        _raises_value_error(fn, bad_eta)
    _raises_value_error(run_pipeline, bad_eta, w)
