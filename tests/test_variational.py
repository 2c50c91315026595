import math

import numpy as np
import pytest

from oracles import entropy_exact_single
from vbmc import variational
from vbmc.gp import _sq_norms, sq_dist
from vbmc.variational import (
    _EXP_FAST_MIN,
    LOGPDF_BLOCK,
    VariationalPosterior,
    _exp_inplace,
    _logsumexp_rows,
    _row_max,
    entropy_mc,
    gaussian_skl,
)


def random_vp(K, D, rng, spread=2.0):
    w = rng.dirichlet(np.ones(K))
    mu = rng.normal(0.0, spread, size=(K, D))
    sigma = rng.uniform(0.5, 1.5, size=K)
    lam = rng.uniform(0.5, 1.5, size=D)
    return VariationalPosterior(w, mu, sigma, lam)


class TestDensity:
    def test_standard_normal_at_origin(self):
        vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        assert vp.logpdf(np.array([[0.0]]))[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_degenerate_weights(self):
        vp = VariationalPosterior([1.0, 0.0], [[0.0], [5.0]], [1.0, 1.0], [1.0])
        only = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        xs = np.linspace(-3, 3, 11)[:, None]
        assert np.allclose(vp.logpdf(xs), only.logpdf(xs))

    def test_integrates_to_one_on_grid(self):
        rng = np.random.default_rng(0)
        vp = random_vp(3, 2, rng, spread=1.0)
        g = np.linspace(-9, 9, 401)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        mass = np.sum(np.exp(vp.logpdf(pts))) * (g[1] - g[0]) ** 2
        assert mass == pytest.approx(1.0, abs=1e-4)


def log_components_expression(vp, X):
    """``log_components`` as one expression with a fresh array per operation."""
    a, b = X / vp.lam, vp.mu / vp.lam
    d2 = (a * a).sum(-1)[:, None] - 2.0 * (a @ b.T) + (b * b).sum(-1)[None, :]
    d2 = np.maximum(d2, 0.0)
    base = -0.5 * vp.D * math.log(2.0 * math.pi) - np.sum(np.log(vp.lam))
    with np.errstate(divide="ignore"):
        logG = base - vp.D * np.log(vp.sigma)[None, :] - 0.5 * d2 / (vp.sigma**2)[None, :]
        return d2, logG + np.log(vp.w)


def logsumexp_rows_expression(a):
    """The plain row log-sum-exp: NumPy's row max, ``np.exp`` and row sum."""
    shift = a.max(axis=1)
    return shift + np.log(np.sum(np.exp(a - shift[:, None]), axis=1))


def same_bits(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestInPlaceBlocks:
    """The (m, K) blocks built in place give the bits of the plain expressions."""

    @pytest.mark.parametrize("K, D", [(1, 1), (3, 2), (20, 2), (7, 6)])
    def test_log_components_bits(self, K, D):
        rng = np.random.default_rng(K + 10 * D)
        vp = random_vp(K, D, rng)
        X = rng.normal(0.0, 3.0, size=(257, D))
        for got, ref in zip(vp.log_components(X), log_components_expression(vp, X)):
            assert np.array_equal(got, ref)

    def test_zero_weight_component(self):
        vp = VariationalPosterior([1.0, 0.0], [[0.0], [5.0]], [1.0, 1.0], [1.0])
        X = np.array([[0.5], [4.0]])
        _, logwG = vp.log_components(X)
        assert np.all(logwG[:, 1] == -np.inf)
        assert np.array_equal(logwG, log_components_expression(vp, X)[1])

    @pytest.mark.parametrize("K, D", [(1, 2), (20, 2), (7, 6)])
    def test_logpdf_blocks_give_the_one_pass_bits(self, K, D):
        rng = np.random.default_rng(K * D)
        vp = random_vp(K, D, rng)
        rows = max(1, LOGPDF_BLOCK // K)
        X = rng.normal(0.0, 3.0, size=(2 * rows + 17, D))
        one_pass = _logsumexp_rows(log_components_expression(vp, X)[1])
        assert np.array_equal(vp.logpdf(X), one_pass)
        assert vp.logpdf(X[5]) == one_pass[5]

    def test_batched_sq_dist_bits(self):
        rng = np.random.default_rng(3)
        for D in range(1, 10):  # the row norms add columns for D < 8
            a, b = rng.normal(size=(5, 11, D)), rng.normal(size=(7, D))
            for x in (a, a[0]):
                ref = (x * x).sum(-1)[..., :, None] - 2.0 * (x @ b.T) + (b * b).sum(-1)[None, :]
                assert same_bits(sq_dist(x, b), np.maximum(ref, 0.0))

    def test_logsumexp_rows_leaves_input_and_matches_expression(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 30.0, size=(100, 12))
        a[3, :5] = -np.inf
        before = a.copy()
        got = _logsumexp_rows(a)
        assert np.array_equal(a, before)
        assert np.array_equal(got, logsumexp_rows_expression(a))

    def test_logsumexp_rows_of_a_fortran_array(self):
        # the shifted copy is made C-ordered for the in-place exp
        a = np.asfortranarray(np.random.default_rng(7).normal(0.0, 400.0, size=(300, 10)))
        assert same_bits(_logsumexp_rows(a), logsumexp_rows_expression(a))


# exp(x) is a normal double for x >= log(DBL_MIN) and subnormal or 0 below
LOG_DBL_MIN = math.log(np.finfo(float).tiny)
# np.exp(x) is exactly 0.0 for x <= log(DBL_TRUE_MIN / 2)
_EXP_ZERO_MAX = -745.1332191019412


def exp_cut_reference(x):
    """The contract of ``_exp_inplace``: ``np.exp``'s bits at and above
    ``_EXP_FAST_MIN`` (NaN and +inf included) and 0.0 below it."""
    ref = np.exp(x)
    ref[x < _EXP_FAST_MIN] = 0.0
    return ref


def mixed_lanes(n, rng):
    """Values that reach every lane kind of ``exp``: normal results, the
    subnormal band, underflow to 0, NaN, +-inf, +-0 and both cut points with
    their neighbours, in random order."""
    edges = []
    for cut in (_EXP_FAST_MIN, LOG_DBL_MIN, _EXP_ZERO_MAX):
        edges += [cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)]
    edges += [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e308]
    parts = [
        rng.uniform(-700.0, 0.0, n),
        rng.uniform(_EXP_ZERO_MAX, LOG_DBL_MIN, n // 4),
        rng.uniform(LOG_DBL_MIN, _EXP_FAST_MIN, n // 4),
        rng.uniform(-3000.0, _EXP_ZERO_MAX, n // 2),
        np.repeat(edges, 5),
    ]
    return rng.permutation(np.concatenate(parts))


class TestExpLanes:
    """``_exp_inplace`` gives ``np.exp``'s bits at and above its cut and 0.0
    below it, the log-sum-exp keeps ``np.exp``'s bits, and the premise."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_np_exp_on_mixed_lanes(self, seed):
        rng = np.random.default_rng(seed)
        x = mixed_lanes(20_000 + seed, rng)[: 7 * 3000]
        ref = exp_cut_reference(x)
        assert not same_bits(ref, np.exp(x))  # some lanes below the cut are not 0
        for part in [x, x.reshape(3000, 7)]:
            got = part.copy()
            assert _exp_inplace(got) is got
            assert same_bits(got.reshape(-1), ref)
        short = x[:1000].copy()  # below 1024 lanes: the plain np.exp
        assert same_bits(_exp_inplace(short), np.exp(x[:1000]))

    def test_cut_points_and_neighbours(self):
        for cut in (_EXP_FAST_MIN, LOG_DBL_MIN, _EXP_ZERO_MAX):
            x = np.tile([np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)], 400)
            assert same_bits(_exp_inplace(x.copy()), exp_cut_reference(x))
        below, at = np.nextafter(_EXP_FAST_MIN, -np.inf), _EXP_FAST_MIN
        got = _exp_inplace(np.tile([below, at], 600))
        assert got[0] == 0.0 < np.exp(below)
        assert same_bits(got[1], np.exp(at))
        tiny = np.finfo(float).tiny
        assert np.exp(_EXP_FAST_MIN) >= 2 * tiny
        assert LOG_DBL_MIN == -708.3964185322641
        assert np.exp(LOG_DBL_MIN) >= tiny > np.exp(np.nextafter(LOG_DBL_MIN, -np.inf))
        assert np.exp(np.nextafter(_EXP_ZERO_MAX, np.inf)) > 0.0

    def test_no_underflow_lane(self):
        x = np.random.default_rng(5).uniform(-700.0, 5.0, size=(300, 7))
        ref = np.exp(x)
        got = _exp_inplace(x)
        assert got is x
        assert same_bits(got, ref)

    def test_np_exp_is_zero_at_and_below_the_zero_cut(self):
        x = np.linspace(-800.0, _EXP_ZERO_MAX, 200_001)
        assert x[-1] == _EXP_ZERO_MAX
        assert same_bits(np.exp(x), np.zeros_like(x))

    @pytest.mark.parametrize("K", [2, 3, 7, 16, 31])
    def test_logsumexp_rows_keeps_np_exp_bits(self, K):
        # after the max shift every row sums to at least 1, so the lanes that
        # _exp_inplace zeroes (below 4 DBL_MIN) do not move a row's bits
        rng = np.random.default_rng(40 + K)
        a = rng.uniform(-760.0, 0.0, size=(40_000 // K, K))
        a[:, 1:][rng.random((a.shape[0], K - 1)) < 0.05] = -np.inf  # no row all -inf
        a[rng.random(a.shape) < 0.2] -= 700.0  # more lanes near and below the cut
        shifted = a - a.max(axis=1)[:, None]
        zeroed = (shifted < _EXP_FAST_MIN) & (np.exp(shifted) > 0.0)
        assert np.any(zeroed)
        assert same_bits(_logsumexp_rows(a), logsumexp_rows_expression(a))

    def test_np_exp_lane_does_not_depend_on_its_vector(self):
        # the premise of _exp_inplace: the same bits for a value whether its
        # SIMD vector holds slow-lane neighbours, is shuffled, or is compacted
        rng = np.random.default_rng(6)
        x = mixed_lanes(400_000, rng)
        ref = np.exp(x)
        perm = rng.permutation(x.size)
        shuffled = np.empty_like(x)
        shuffled[perm] = np.exp(x[perm])
        assert same_bits(shuffled, ref)
        for keep in (x >= _EXP_FAST_MIN, (x < _EXP_FAST_MIN) & (x > _EXP_ZERO_MAX)):
            assert same_bits(np.exp(x[keep]), ref[keep])
        assert same_bits(np.exp(x[1:]), ref[1:])


class TestRowMax:
    @pytest.mark.parametrize("K", range(1, 31))
    def test_matches_numpy_row_max(self, K):
        # 1001 rows take the column loop, 11 rows NumPy's reduction (K > 1)
        rng = np.random.default_rng(K)
        a = rng.normal(0.0, 50.0, size=(1001, K))
        a[7, rng.integers(K)] = np.nan
        a[8, :] = np.nan
        a[9, :] = -np.inf
        a[10, 0] = np.inf
        for rows in (a, a[:11]):
            assert same_bits(_row_max(rows), rows.max(axis=1))

    @pytest.mark.parametrize("K", range(1, 31))
    def test_signed_zero_ties(self, K):
        # on a tie of +0 and -0 the sign of the zero may differ from NumPy's
        # row max; the value does not, nor do the log-sum-exp's bits
        rng = np.random.default_rng(100 + K)
        choices = np.array([0.0, -0.0, -1.0, -3.5, -800.0])
        a = rng.choice(choices, size=(2000, K), p=[0.3, 0.3, 0.2, 0.1, 0.1])
        assert np.array_equal(_row_max(a), a.max(axis=1))
        assert same_bits(_logsumexp_rows(a), logsumexp_rows_expression(a))


class TestSqNorms:
    @pytest.mark.parametrize("D", range(1, 10))
    def test_bits_of_the_plain_sum(self, D):
        rng = np.random.default_rng(D)
        for shape in [(1, D), (3, D), (4097, D), (5, 1, D), (6, 301, D)]:
            a = rng.normal(size=shape) * rng.lognormal(0.0, 6.0, size=shape)
            assert same_bits(_sq_norms(a), (a * a).sum(-1))


def far_separated_vp(K=20, D=2):
    """Narrow components spread far apart, so most mixture lanes underflow."""
    mu = np.zeros((K, D))
    mu[:, 0] = 6.0 * np.arange(K)
    w = np.random.default_rng(30).dirichlet(np.ones(K))
    return VariationalPosterior(w, mu, np.full(K, 0.15), np.ones(D))


class TestEntropyBits:
    """``entropy_mc`` gives the bits of the plain log-sum-exp and ``np.exp``."""

    def test_lanes_underflow(self):
        vp = far_separated_vp()
        x = vp.sample(2000, np.random.default_rng(31))
        logwG = vp.log_components(x)[1]
        shifted = logwG - logwG.max(axis=1)[:, None]
        assert np.mean(shifted <= _EXP_ZERO_MAX) >= 0.15
        assert np.any((shifted > _EXP_ZERO_MAX) & (shifted < LOG_DBL_MIN))

    @pytest.mark.parametrize("grad", [True, False])
    def test_value_and_gradient_bits(self, grad, monkeypatch):
        vp = far_separated_vp()
        n = 300 if grad else 5000
        H, g = entropy_mc(vp, n, np.random.default_rng(32), grad=grad)
        monkeypatch.setattr(variational, "_logsumexp_rows", logsumexp_rows_expression)
        monkeypatch.setattr(variational, "_exp_inplace", lambda x: np.exp(x, out=x))
        H_ref, g_ref = entropy_mc(vp, n, np.random.default_rng(32), grad=grad)
        assert same_bits(H, H_ref)
        if grad:
            assert same_bits(g, g_ref)


def entropy_value_reference(vp, n_samples, rng):
    """``entropy_mc(grad=False)`` with each block's points built as the
    expression mu + sigma[:, None] * (lam * eps), a fresh array per operation."""
    block = max(1, 65536 // vp.K)
    total, done = 0.0, 0
    while done < n_samples:
        Ns = min(block, n_samples - done)
        eps = rng.standard_normal((Ns, vp.K, vp.D))
        xi = (vp.mu + vp.sigma[:, None] * (vp.lam * eps)).reshape(Ns * vp.K, vp.D)
        total += float(np.sum(vp.logpdf(xi).reshape(Ns, vp.K) @ vp.w))
        done += Ns
    return -total / n_samples


class TestEntropyValueInPlace:
    """The value path builds its points in the draw buffer, with the expression's bits."""

    @pytest.mark.parametrize("K", [1, 2, 7, 20, 21])
    def test_matches_the_expression(self, K, monkeypatch):
        # the estimate alone would hide a point that moved by an ulp, so the
        # points each block passes to logpdf are compared too
        rng = np.random.default_rng(40 + K)
        vp = random_vp(K, 3, rng)
        points = []
        logpdf = VariationalPosterior.logpdf

        def spy(self, X):
            points[-1].append(X.copy())
            return logpdf(self, X)

        monkeypatch.setattr(VariationalPosterior, "logpdf", spy)
        block = 65536 // K
        for n in (block + 17, 2 * block + 5, 999):
            assert n % block
            gen, gen_ref = np.random.default_rng(n), np.random.default_rng(n)
            points.append([])
            H, none = entropy_mc(vp, n, gen, grad=False)
            points.append([])
            H_ref = entropy_value_reference(vp, n, gen_ref)
            assert none is None
            assert H == H_ref
            assert gen.bit_generator.state == gen_ref.bit_generator.state
            got, ref = points[-2:]
            assert len(got) == len(ref) == -(-n // block)
            assert all(np.array_equal(x, y) for x, y in zip(got, ref))


class TestSampling:
    def test_zero_scale_collapses_to_means(self):
        vp = VariationalPosterior(
            [0.5, 0.5], [[1.0, 2.0], [3.0, 4.0]], [1e-300, 1e-300], [1e-10, 1e-10]
        )
        rng = np.random.default_rng(1)
        xs = vp.sample(100, rng)
        dists = np.min(
            np.sum((xs[:, None, :] - vp.mu[None]) ** 2, axis=2), axis=1
        )
        assert np.max(dists) < 1e-12

    def test_sample_mean_matches_moments(self):
        rng = np.random.default_rng(2)
        vp = random_vp(3, 2, rng)
        xs = vp.sample(10**5, np.random.default_rng(3))
        mean, cov = vp.moments()
        se = np.sqrt(np.diag(cov) / 10**5)
        assert np.all(np.abs(xs.mean(axis=0) - mean) < 4 * se)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        vp = random_vp(2, 3, rng)
        a = vp.sample(50, np.random.default_rng(7))
        b = vp.sample(50, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestMoments:
    def test_single_component(self):
        vp = VariationalPosterior([1.0], [[1.0, -2.0]], [0.5], [2.0, 3.0])
        mean, cov = vp.moments()
        assert np.allclose(mean, [1.0, -2.0])
        assert np.allclose(cov, np.diag([0.25 * 4.0, 0.25 * 9.0]))

    def test_two_symmetric_components(self):
        vp = VariationalPosterior([0.5, 0.5], [[-1.0], [1.0]], [1.0, 1.0], [1.0])
        mean, cov = vp.moments()
        assert mean[0] == pytest.approx(0.0)
        assert cov[0, 0] == pytest.approx(2.0)

    def test_matches_empirical_moments(self):
        rng = np.random.default_rng(5)
        vp = random_vp(4, 2, rng)
        xs = vp.sample(10**6, np.random.default_rng(6))
        mean, cov = vp.moments()
        assert np.allclose(xs.mean(axis=0), mean, atol=0.01)
        assert np.allclose(np.cov(xs.T), cov, atol=0.02)

    def test_covariance_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, cov = random_vp(rng.integers(1, 6), rng.integers(1, 4), rng).moments()
            assert np.allclose(cov, cov.T)
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


class TestEntropy:
    def test_single_gaussian_closed_form(self):
        vp = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        target = 0.5 * math.log(2 * math.pi * math.e)
        rng = np.random.default_rng(8)
        H, _ = entropy_mc(vp, 10**4, rng)
        # SE of the estimator is sqrt(Var[log q]) / sqrt(Ns) = sqrt(1/2) / 100
        assert abs(H - target) < 5 * math.sqrt(0.5) / 100

    def test_scaling_law(self):
        rng = np.random.default_rng(9)
        c = 2.5
        vp1 = VariationalPosterior([1.0], [[0.3, -1.0]], [0.8], [1.0, 2.0])
        vp2 = VariationalPosterior([1.0], [[0.3, -1.0]], [0.8 * c], [1.0, 2.0])
        H1, _ = entropy_mc(vp1, 4 * 10**4, np.random.default_rng(10))
        H2, _ = entropy_mc(vp2, 4 * 10**4, np.random.default_rng(10))
        assert H2 - H1 == pytest.approx(2 * math.log(c), abs=0.02)

    def test_value_only_path_matches(self):
        rng = np.random.default_rng(11)
        vp = random_vp(3, 2, rng)
        H1, g = entropy_mc(vp, 500, np.random.default_rng(12))
        H2, none = entropy_mc(vp, 500, np.random.default_rng(12), grad=False)
        assert none is None
        assert H1 == H2

    def test_blocked_value_path_matches_one_shot_draws(self):
        # K = 3 gives value-only blocks of 65536 // 3 = 21845 draws, so
        # 2**15 draws take two blocks; the gradient call takes one
        vp = random_vp(3, 2, np.random.default_rng(16))
        n = 2**15
        assert n > 65536 // vp.K
        H1, _ = entropy_mc(vp, n, np.random.default_rng(17))
        H2, _ = entropy_mc(vp, n, np.random.default_rng(17), grad=False)
        assert H2 == pytest.approx(H1, rel=1e-12)

    def test_exact_single_matches_mc(self):
        vp = VariationalPosterior([1.0], [[0.5, 1.0, -2.0]], [0.7], [1.0, 0.5, 2.0])
        H, grad = entropy_exact_single(vp)
        H_mc, _ = entropy_mc(vp, 2 * 10**4, np.random.default_rng(13))
        assert H == pytest.approx(H_mc, abs=0.05)
        assert grad[vp.D] == pytest.approx(vp.D)

    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("D", [1, 2, 6])
    def test_gradient_matches_common_random_fd(self, K, D):
        seed = 100 * K + D
        vp = random_vp(K, D, np.random.default_rng(seed))
        Ns = 50
        # a fresh generator per call: every call draws the same eps first
        _, grad = entropy_mc(vp, Ns, np.random.default_rng(seed + 1))

        theta0 = vp.to_vector()

        def H_at(theta):
            v = VariationalPosterior.from_vector(theta, K, D)
            H, _ = entropy_mc(v, Ns, np.random.default_rng(seed + 1))
            return H

        h = 1e-6
        for i in range(theta0.size):
            tp, tm = theta0.copy(), theta0.copy()
            tp[i] += h
            tm[i] -= h
            fd = (H_at(tp) - H_at(tm)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestGaussianSKL:
    def test_identical_posteriors(self):
        rng = np.random.default_rng(14)
        vp = random_vp(3, 2, rng)
        skl = gaussian_skl(*vp.moments(), *vp.moments())
        assert skl == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift_closed_form(self):
        a = VariationalPosterior([1.0], [[0.0]], [1.0], [1.0])
        b = VariationalPosterior([1.0], [[1.0]], [1.0], [1.0])
        assert gaussian_skl(*a.moments(), *b.moments()) == pytest.approx(0.5)

    def test_mean_of_directed_divergences(self):
        # N(0, 1) against N(0, 4): KL(a||b) = (1/4 - 1 + ln 4) / 2 and
        # KL(b||a) = (4 - 1 - ln 4) / 2. Their mean is 0.5625; the sum
        # convention would give twice that.
        kl_ab = 0.5 * (0.25 - 1.0 + math.log(4.0))
        kl_ba = 0.5 * (4.0 - 1.0 - math.log(4.0))
        expected = 0.5 * (kl_ab + kl_ba)
        assert expected == pytest.approx(0.5625)
        skl = gaussian_skl([0.0], [[1.0]], [0.0], [[4.0]])
        assert skl == pytest.approx(expected)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = random_vp(2, 3, rng)
            b = random_vp(3, 3, rng)
            s1 = gaussian_skl(*a.moments(), *b.moments())
            s2 = gaussian_skl(*b.moments(), *a.moments())
            assert s1 == pytest.approx(s2, rel=1e-12)
            assert s1 >= 0

    def test_singular_covariance_is_infinite(self):
        assert gaussian_skl(np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.eye(2)) == np.inf


class TestParamVector:
    def test_softmax_symmetry(self):
        vp = VariationalPosterior.from_vector(
            np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 2, 1
        )
        assert np.allclose(vp.w, [0.5, 0.5])

    def test_gauge_invariance(self):
        rng = np.random.default_rng(16)
        vp = random_vp(3, 2, rng)
        theta = vp.to_vector()
        shifted = theta.copy()
        shifted[-3:] += 11.7
        a = VariationalPosterior.from_vector(theta, 3, 2)
        b = VariationalPosterior.from_vector(shifted, 3, 2)
        assert np.allclose(a.w, b.w)

    def test_round_trip_density(self):
        rng = np.random.default_rng(17)
        vp = random_vp(4, 3, rng)
        vp2 = VariationalPosterior.from_vector(vp.to_vector(), 4, 3)
        xs = rng.normal(size=(100, 3))
        assert np.allclose(vp.logpdf(xs), vp2.logpdf(xs), atol=1e-12)

    def test_parameter_count(self):
        vp = VariationalPosterior(
            [0.5, 0.5], np.zeros((2, 3)), [1.0, 1.0], np.ones(3)
        )
        assert vp.to_vector().size == 2 * (3 + 2) + 3

    def test_json_round_trip(self):
        rng = np.random.default_rng(18)
        vp = random_vp(3, 2, rng)
        data = vp.to_json()
        vp2 = VariationalPosterior(
            data["w"], np.reshape(data["mu"], (data["K"], data["D"])),
            data["sigma"], data["lambda"],
        )
        xs = rng.normal(size=(20, 2))
        assert np.allclose(vp.logpdf(xs), vp2.logpdf(xs))
