import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbmc.core import InferenceResult
from vbmc.transforms import ParameterTransform
from vbmc.variational import VariationalPosterior


def make_mixed():
    # dim 0 unbounded, dim 1 bounded
    return ParameterTransform(
        lb=[-np.inf, 0.0], ub=[np.inf, 1.0], plb=[-1.0, 0.25], pub=[1.0, 0.75]
    )


def test_unbounded_midpoint_maps_to_zero():
    tr = ParameterTransform([-np.inf], [np.inf], [-1.0], [1.0])
    assert tr.to_internal(np.array([0.0])) == pytest.approx(0.0)


def test_unbounded_standardization_value():
    tr = ParameterTransform([-np.inf], [np.inf], [2.0], [6.0])
    assert tr.to_internal(np.array([6.0])) == pytest.approx(0.5)


def test_bounded_logit_symmetry():
    # symmetric plausible bounds put the logit midpoint at zero
    tr = ParameterTransform([0.0], [1.0], [0.25], [0.75])
    assert tr.to_internal(np.array([0.5])) == pytest.approx(0.0)


def test_to_original_unbounded():
    tr = ParameterTransform([-np.inf], [np.inf], [-1.0], [1.0])
    assert tr.to_original(np.array([0.5])) == pytest.approx(1.0)


def test_to_original_bounded_midpoint():
    tr = ParameterTransform([0.0], [10.0], [2.5], [7.5])
    assert tr.to_original(np.array([0.0])) == pytest.approx(5.0)


def test_log_jacobian_unbounded_rescale():
    tr = ParameterTransform([-np.inf], [np.inf], [-1.0], [1.0])
    assert tr.log_jacobian(np.array([0.3])) == pytest.approx(np.log(0.5))


def test_log_jacobian_bounded_logit_derivative():
    tr = ParameterTransform([0.0], [1.0], [0.25], [0.75])
    width = 2.0 * np.log(3.0)  # logit(0.75) - logit(0.25)
    term = tr.log_jacobian_terms(np.array([0.5]))[0]
    # logit derivative at the midpoint is 1/(z(1-z)) = 4, before standardization
    assert term + np.log(width) == pytest.approx(np.log(4.0), abs=1e-12)


@pytest.mark.parametrize("x", [[0.4, 0.3], [-2.0, 0.9], [1.7, 0.05]])
def test_log_jacobian_matches_finite_differences(x):
    tr = make_mixed()
    x = np.array(x)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        d = (tr.to_internal(x + e)[i] - tr.to_internal(x - e)[i]) / (2 * h)
        term = tr.log_jacobian_terms(x)[i]
        assert d == pytest.approx(np.exp(term), rel=1e-6)


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    tr = make_mixed()
    x = np.column_stack(
        [rng.normal(0.0, 3.0, size=1000), rng.uniform(1e-3, 1 - 1e-3, size=1000)]
    )
    back = tr.to_original(tr.to_internal(x))
    assert np.max(np.abs(back - x)) < 1e-10


def test_monotone_per_dimension():
    tr = make_mixed()
    xs = np.column_stack([np.linspace(-5, 5, 200), np.linspace(0.01, 0.99, 200)])
    u = tr.to_internal(xs)
    assert np.all(np.diff(u[:, 0]) > 0)
    assert np.all(np.diff(u[:, 1]) > 0)


@given(
    st.floats(-30.0, 30.0),
    st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_property(x0, z1):
    tr = make_mixed()
    x = np.array([x0, z1])
    back = tr.to_original(tr.to_internal(x))
    assert np.max(np.abs(back - x)) < 1e-9


def test_density_mass_preserved_unbounded():
    # N(1, 0.5^2) mass computed in both coordinate systems
    tr = ParameterTransform([-np.inf], [np.inf], [0.0], [2.0])
    xs = np.linspace(-4.0, 6.0, 20001)
    log_p = -0.5 * ((xs - 1.0) / 0.5) ** 2 - np.log(0.5 * np.sqrt(2 * np.pi))
    mass_orig = np.trapezoid(np.exp(log_p), xs)

    us = tr.to_internal(xs[:, None]).ravel()
    log_p_int = log_p - tr.log_jacobian(xs[:, None])
    mass_int = np.trapezoid(np.exp(log_p_int), us)
    assert mass_int == pytest.approx(mass_orig, abs=1e-6)


def test_density_mass_preserved_bounded():
    # Beta(2, 3) on [0, 1]
    tr = ParameterTransform([0.0], [1.0], [0.2], [0.8])
    xs = np.linspace(1e-6, 1 - 1e-6, 40001)
    log_p = np.log(12.0) + np.log(xs) + 2 * np.log1p(-xs)
    mass_orig = np.trapezoid(np.exp(log_p), xs)

    us = tr.to_internal(xs[:, None]).ravel()
    log_p_int = log_p - tr.log_jacobian(xs[:, None])
    mass_int = np.trapezoid(np.exp(log_p_int), us)
    assert mass_int == pytest.approx(mass_orig, abs=1e-6)


def test_out_of_bounds_names_dimension():
    tr = make_mixed()
    with pytest.raises(ValueError, match="dimension 1"):
        tr.to_internal(np.array([0.0, 1.5]))


def test_half_bounded_rejected():
    with pytest.raises(ValueError, match="half-bounded"):
        ParameterTransform([0.0], [np.inf], [1.0], [2.0])


def test_bad_plausible_order_rejected():
    with pytest.raises(ValueError):
        ParameterTransform([0.0], [1.0], [0.7], [0.3])
    with pytest.raises(ValueError):
        ParameterTransform([0.0], [1.0], [0.0], [0.5])


def test_config_round_trip():
    tr = make_mixed()
    x = np.array([0.7, 0.42])
    string_inf = {**tr.to_config(), "lb": ["-inf", 0.0], "ub": ["inf", 1.0]}
    for config in (tr.to_config(), string_inf):
        tr2 = ParameterTransform.from_config(config)
        assert np.allclose(tr.to_internal(x), tr2.to_internal(x))
        assert np.array_equal(tr.bounded, tr2.bounded)


def unbounded_posterior():
    tr = ParameterTransform([-np.inf] * 2, [np.inf] * 2, [2.0, -1.0], [6.0, 0.0])
    vp = VariationalPosterior(
        [0.2, 0.5, 0.3],
        [[0.1, -0.3], [0.6, 0.2], [-0.4, 0.5]],
        [0.3, 0.5, 0.2],
        [1.0, 0.7],
    )
    return InferenceResult(vp, tr, 0.0, 0.0, False, 0, 0, [])


def test_moments_to_original_is_the_affine_map():
    res = unbounded_posterior()
    mean_i, cov_i = res.vp.moments()
    mean, cov = res.transform.moments_to_original(mean_i, cov_i)
    # x = center + width * u with center (4, -0.5) and width (4, 1)
    width = np.array([4.0, 1.0])
    assert np.allclose(mean, [4.0, -0.5] + width * mean_i, rtol=1e-14, atol=0)
    expected_cov = np.diag(width) @ cov_i @ np.diag(width)
    assert np.allclose(cov, expected_cov, rtol=1e-14, atol=0)
    mean_r, cov_r = res.moments_original()
    assert np.array_equal(mean_r, mean)
    assert np.array_equal(cov_r, cov)


def test_moments_to_original_matches_samples():
    res = unbounded_posterior()
    mean, cov = res.transform.moments_to_original(*res.vp.moments())
    xs = res.sample_original(400_000, np.random.default_rng(1))
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(xs.mean(axis=0) - mean) < 0.01 * sd)
    assert np.allclose(np.cov(xs.T), cov, rtol=0.02, atol=0.02 * sd.max() ** 2)


def test_moments_to_original_rejects_bounded_dimensions():
    with pytest.raises(ValueError, match="unbounded"):
        make_mixed().moments_to_original(np.zeros(2), np.eye(2))


def test_internal_plausible_box_is_unit_centered():
    tr = make_mixed()
    assert np.allclose(tr.internal_plb, -0.5)
    assert np.allclose(tr.internal_pub, 0.5)
    # plausible bounds map onto the internal box exactly
    u = tr.to_internal(np.array([[-1.0, 0.25], [1.0, 0.75]]))
    assert np.allclose(u, [[-0.5, -0.5], [0.5, 0.5]])
