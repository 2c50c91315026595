import numpy as np
import pytest

from vbmc import slice_sampler
from vbmc.slice_sampler import SliceSamplingError, slice_sample

COV = np.array([[1.0, 0.9], [0.9, 1.0]])
PREC = np.linalg.inv(COV)


def gaussian_logpdf(x):
    return -0.5 * float(x @ PREC @ x)


class TestSliceSample:
    def test_moments_of_correlated_gaussian(self):
        # coordinate-wise updates mix slowly at correlation 0.9 (lag-1
        # autocorrelation about 0.8 per sweep), so about 6000 draws give an
        # effective sample size near 600 and standard errors near 0.04
        draws = slice_sample(
            gaussian_logpdf, [2.0, -2.0], 6000, 1.0, np.random.default_rng(0),
            burn_sweeps=50, thin_sweeps=1,
        )
        assert np.all(np.abs(draws.mean(axis=0)) < 0.2)
        assert np.allclose(np.var(draws, axis=0), 1.0, atol=0.2)
        assert np.corrcoef(draws.T)[0, 1] == pytest.approx(0.9, abs=0.04)

    def test_hard_bound_never_crossed(self):
        evaluated = []

        def truncated(x):
            evaluated.append(x.copy())
            return -np.inf if x[0] < 0.5 else gaussian_logpdf(x)

        draws = slice_sample(
            truncated, [1.0, 1.0], 2000, 1.0, np.random.default_rng(1),
            burn_sweeps=10, thin_sweeps=1,
        )
        assert np.all(draws[:, 0] >= 0.5)
        assert draws[:, 0].min() < 0.6
        # the sampler did propose across the bound and rejected it
        assert min(x[0] for x in evaluated) < 0.5

    def test_failure_reports_last_valid_sample(self, monkeypatch):
        # the density lives on the line x1 = 0.5: coordinate 0 moves along
        # it, then no proposal for coordinate 1 hits 0.5 exactly
        evaluated = []

        def on_line(x):
            evaluated.append(x.copy())
            return 0.0 if 0.0 <= x[0] <= 1.0 and x[1] == 0.5 else -np.inf

        monkeypatch.setattr(slice_sampler, "MAX_SHRINK", 10)
        with pytest.raises(SliceSamplingError) as info:
            slice_sample(
                on_line, [0.3, 0.5], 1, 1.0, np.random.default_rng(2),
                burn_sweeps=0, thin_sweeps=1,
            )
        first_off_line = next(i for i, x in enumerate(evaluated) if x[1] != 0.5)
        accepted = evaluated[first_off_line - 1]  # coordinate 0's accepted move
        assert accepted[0] != 0.3
        assert np.array_equal(info.value.last_sample, accepted)
        assert on_line(info.value.last_sample) == 0.0

    def test_requires_finite_start(self):
        with pytest.raises(ValueError, match="finite starting density"):
            slice_sample(
                lambda x: -np.inf, [0.0], 1, 1.0, np.random.default_rng(3),
                burn_sweeps=10, thin_sweeps=3,
            )
