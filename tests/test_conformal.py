"""Tests for conformal p-values, measures, and the grid region oracle."""

import math

import numpy as np
import pytest

from fabcp.conformal import (
    ConformityMeasure,
    DTAMeasure,
    FABMeasure,
    GridSpec,
    conformal_pvalue,
    default_grid,
    grid_region,
    step_profile,
    _score_matrix,
)
from fabcp.fab import fab_interval
from fabcp.working_model import WorkingModelParams


def brute_force_pvalue(sample, x, measure):
    """Rank count recomputed from the definition, one score at a time."""
    bag = list(sample) + [x]
    n = len(sample)
    scores = []
    for i in range(n + 1):
        if measure.augmented:
            conditioning = np.array(bag)
        else:
            conditioning = np.array(bag[:i] + bag[i + 1:])
        scores.append(measure.score(conditioning, bag[i]))
    count = sum(1 for s in scores if s <= scores[-1])
    return count / (n + 1)


def random_params(rng):
    return WorkingModelParams(
        mu=float(rng.uniform(-3, 3)),
        tau2=float(rng.choice([0.1, 0.5, 2.0, 10.0])),
        a=float(rng.uniform(0.5, 5)),
        b=float(rng.uniform(0.5, 5)),
    )


class TestConformalPvalue:
    def test_matches_brute_force_dta(self):
        rng = np.random.default_rng(10)
        sample = rng.normal(size=5)
        for measure in (DTAMeasure(augmented=True), DTAMeasure(augmented=False)):
            for x in rng.uniform(-4, 4, size=10):
                got = conformal_pvalue(sample, float(x), measure)
                assert got == brute_force_pvalue(sample, float(x), measure)

    def test_matches_brute_force_fab(self):
        rng = np.random.default_rng(11)
        sample = rng.normal(size=5)
        params = random_params(rng)
        for augmented in (True, False):
            measure = FABMeasure(params, augmented=augmented)
            for x in rng.uniform(-4, 4, size=10):
                got = conformal_pvalue(sample, float(x), measure)
                assert got == brute_force_pvalue(sample, float(x), measure)

    def test_best_scoring_candidate_has_pvalue_one(self):
        # candidate at the augmented mean has distance zero, beating all others
        sample = [0.0, 2.0]
        assert conformal_pvalue(sample, 1.0, DTAMeasure(augmented=True)) == 1.0

    def test_candidate_tied_with_observation(self):
        # duplicating an observed value ties the two scores; both count as <=
        sample = [0.0, 1.0, 2.0]
        p = conformal_pvalue(sample, 2.0, DTAMeasure(augmented=True))
        assert p >= 2.0 / 4.0

    def test_minimum_pvalue(self):
        # the candidate's own score always satisfies <= against itself
        sample = [0.0, 0.1, -0.1]
        p = conformal_pvalue(sample, 1e6, DTAMeasure(augmented=True))
        assert p == pytest.approx(1.0 / 4.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        sample = rng.normal(size=6)
        params = random_params(rng)
        for measure in (FABMeasure(params), DTAMeasure()):
            for x in (-1.3, 0.2, 2.8):
                base = conformal_pvalue(sample, x, measure)
                for _ in range(5):
                    perm = rng.permutation(sample)
                    assert conformal_pvalue(perm, x, measure) == base

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            conformal_pvalue([], 0.0, DTAMeasure())

    @pytest.mark.parametrize("measure", [DTAMeasure(), FABMeasure(WorkingModelParams(0.0, 1.0, 1.0, 1.0))])
    def test_non_finite_input_rejected(self, measure):
        with pytest.raises(ValueError, match="non-finite"):
            conformal_pvalue([0.0, math.nan, 1.0], 0.5, measure)
        with pytest.raises(ValueError, match="candidate must be finite"):
            conformal_pvalue([0.0, 1.0], math.inf, measure)
        with pytest.raises(ValueError, match="non-finite"):
            grid_region([0.0, math.inf], measure, 0.25, GridSpec(-1.0, 1.0, 11))


class TestGridRegion:
    def test_k_zero_accepts_everything(self):
        sample = np.array([0.0, 1.0, 2.0])
        # alpha*(n+1) = 0.4 -> k = 0 -> count >= 1 > 0 at every point
        region = grid_region(sample, DTAMeasure(), 0.1, GridSpec(-5, 5, 201))
        assert region.accepted.all()
        assert region.intervals == [(-5.0, 5.0)]

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="degenerate grid"):
            GridSpec(1.0, 1.0, 101)

    @pytest.mark.parametrize("lo, hi, num, message", [
        (-math.inf, 1.0, 11, "grid bounds must be finite"),
        (0.0, math.nan, 11, "grid bounds must be finite"),
        (0.0, 1.0, 1, "grid needs at least two points"),
    ])
    def test_invalid_grid_rejected(self, lo, hi, num, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSpec(lo, hi, num)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)"):
            grid_region([0.0, 1.0], DTAMeasure(), alpha, GridSpec(-1.0, 1.0, 11))

    def test_region_is_count_exceeding_k(self):
        # n = 4, alpha = 0.2: k = floor(1.0) = 1, region is where count > 1
        rng = np.random.default_rng(13)
        sample = rng.normal(size=4)
        grid = default_grid(sample, num=801)
        measure = FABMeasure(random_params(rng))
        counts = step_profile(sample, measure, grid)
        region = grid_region(sample, measure, 0.2, grid)
        np.testing.assert_array_equal(region.accepted, counts > 1)

    def test_mask_length_matches_grid(self):
        grid = GridSpec(-2.0, 3.0, 501)
        region = grid_region([0.0, 1.0], DTAMeasure(), 0.25, grid)
        assert region.accepted.size == 501
        assert int(math.floor((region.grid_hi - region.grid_lo) / region.resolution + 0.5)) + 1 == 501

    def test_vectorized_scores_match_pointwise(self):
        """The builder's matrix holds the scores of the bags brute_force_pvalue builds."""
        rng = np.random.default_rng(14)
        sample = rng.normal(size=5)
        xs = np.linspace(-4, 4, 41)
        params = random_params(rng)
        for measure in (
            FABMeasure(params, augmented=True),
            FABMeasure(params, augmented=False),
            DTAMeasure(augmented=True),
            DTAMeasure(augmented=False),
        ):
            matrix = _score_matrix(sample, xs, measure)
            bag_scores = np.empty_like(matrix)
            for j, x in enumerate(xs):
                bag = list(sample) + [float(x)]
                for i in range(6):
                    cond = bag if measure.augmented else bag[:i] + bag[i + 1:]
                    bag_scores[j, i] = measure.score(np.array(cond), bag[i])
            np.testing.assert_array_equal(matrix, bag_scores)


class MedianDistance(ConformityMeasure):
    """A measure that defines only the row-wise ``scores``."""

    def __init__(self, augmented):
        self.augmented = augmented

    def scores(self, bags, points):
        return -np.abs(points - np.median(bags, axis=1)[:, None])


class TestMeasureContract:
    @pytest.mark.parametrize("augmented", [True, False])
    def test_scores_alone_drive_every_entry_point(self, augmented):
        rng = np.random.default_rng(19)
        sample = rng.normal(size=6)
        measure = MedianDistance(augmented)
        grid = default_grid(sample, num=301)
        counts = step_profile(sample, measure, grid)
        want = [brute_force_pvalue(sample, float(x), measure) * 7 for x in grid.points()]
        np.testing.assert_array_equal(counts, np.round(want).astype(int))  # n + 1 = 7
        for x in grid.points()[::25]:
            assert conformal_pvalue(sample, float(x), measure) == brute_force_pvalue(
                sample, float(x), measure
            )
        region = grid_region(sample, measure, 0.25, grid)
        np.testing.assert_array_equal(region.accepted, counts > 1)  # k = floor(0.25 * 7) = 1


class TestLargeOffsets:
    @pytest.mark.parametrize("k", range(10))
    def test_grid_region_matches_fab_interval_at_offset(self, k):
        """Centered posterior updates keep the oracle exact far from zero."""
        offset = 10.0**k
        rng = np.random.default_rng(30 + k)
        for _ in range(20):
            n = int(rng.integers(3, 10))  # k = floor(alpha*(n+1)) >= 1: a bounded region
            y = offset + rng.normal(size=n)
            params = WorkingModelParams(
                mu=offset + float(rng.uniform(-3, 3)),
                tau2=float(rng.choice([0.1, 0.5, 2.0, 10.0])),
                a=float(rng.uniform(0.5, 5)),
                b=float(rng.uniform(0.5, 5)),
            )
            alpha = float(rng.choice([0.25, 0.5]))
            grid = default_grid(y, num=2001, anchors=(params.mu,))
            aug = grid_region(y, FABMeasure(params, augmented=True), alpha, grid)
            plain = grid_region(y, FABMeasure(params, augmented=False), alpha, grid)
            np.testing.assert_array_equal(aug.accepted, plain.accepted)
            iv = fab_interval(y, params, alpha)
            ((lo, hi),) = aug.intervals
            assert abs(lo - iv.lower) <= grid.resolution
            assert abs(hi - iv.upper) <= grid.resolution


class TestStepProfile:
    @staticmethod
    def _assert_staircase(counts, n):
        peak = counts.max()
        assert peak == n + 1
        i = int(np.argmax(counts))
        assert np.all(np.diff(counts[: i + 1]) >= 0)
        assert np.all(np.diff(counts[i:]) <= 0)

    def test_fab_profile_unimodal(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            sample = rng.normal(size=n)
            measure = FABMeasure(random_params(rng))
            counts = step_profile(sample, measure, default_grid(sample, num=2001))
            self._assert_staircase(counts, n)

    def test_dta_profile_unimodal(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            sample = rng.normal(size=n)
            counts = step_profile(sample, DTAMeasure(), default_grid(sample, num=2001))
            self._assert_staircase(counts, n)

    def test_identical_sample_peaks_only_at_value(self):
        sample = np.array([1.0, 1.0, 1.0])
        grid = default_grid(sample)  # includes 1.0 exactly
        for measure in (DTAMeasure(), FABMeasure(WorkingModelParams(1.0, 0.7, 1.0, 1.0))):
            counts = step_profile(sample, measure, grid)
            xs = grid.points()
            assert set(xs[counts == 4]) == {1.0}


class TestECMProperty:
    def test_masks_identical_under_both_forms(self):
        """The plain and augmented predictive scores carve identical regions."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            sample = rng.normal(size=n)
            params = random_params(rng)
            alpha = float(rng.choice([0.2, 0.25, 0.5]))
            grid = default_grid(sample, num=1001)
            plain = grid_region(sample, FABMeasure(params, augmented=False), alpha, grid)
            aug = grid_region(sample, FABMeasure(params, augmented=True), alpha, grid)
            np.testing.assert_array_equal(plain.accepted, aug.accepted)


class TestCoverageByConstruction:
    def test_pvalue_exceeds_alpha_at_guaranteed_rate(self):
        """P(p_y > alpha) is 1 - k/(n+1) exactly for continuous data."""
        rng = np.random.default_rng(18)
        n, reps = 3, 100_000
        draws = rng.normal(size=(reps, n + 1))
        measure = DTAMeasure(augmented=True)
        hits = {0.25: 0, 0.5: 0}
        for row in draws:
            p = conformal_pvalue(row[:n], float(row[n]), measure)
            for alpha in hits:
                hits[alpha] += p > alpha
        for alpha, hit in hits.items():
            k = math.floor(alpha * (n + 1))
            target = 1.0 - k / (n + 1)
            se = math.sqrt(target * (1 - target) / reps)
            frac = hit / reps
            assert frac >= 1 - alpha - 3 * se
            assert abs(frac - target) <= 3 * se
