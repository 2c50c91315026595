import json
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.stats import t as student_t

from vbmc import benchmark, cli
from vbmc.benchmark import (
    BenchmarkRecord,
    execute_run,
    make_cigar,
    make_lumpy,
    make_problem,
    make_student,
    metric_gskl,
    metric_lml_error,
    summarize_records,
    verify_ground_truth,
    write_long_csv,
    write_summary_csv,
)
from vbmc.gp import student_t_log_kernel


class TestLumpy:
    def test_component_count_and_weights(self):
        p = make_lumpy(3, 0)
        assert p.params["mu"].shape == (12, 3)
        assert p.params["w"].sum() == pytest.approx(1.0)
        assert np.all(p.params["sd"] >= 0.2) and np.all(p.params["sd"] <= 0.6)

    def test_lml_matches_grid(self):
        p = make_lumpy(2, 0)
        report = verify_ground_truth(p)
        assert report["lml"] == pytest.approx(p.lml_true, abs=1e-4)

    def test_posterior_mean_matches_grid(self):
        p = make_lumpy(2, 3)
        report = verify_ground_truth(p)
        assert np.allclose(report["mean"], p.post_mean, atol=1e-4)

    def test_prior_scaled_to_mixture_spread(self):
        p = make_lumpy(2, 0)
        assert np.all(p.prior_sd > 3.5 * 0.2)


class TestStudent:
    def test_dof_spacing(self):
        p = make_student(2)
        assert np.allclose(p.params["dof"], [2.5, 3.0])
        p6 = make_student(6)
        assert p6.params["dof"][0] == 2.5
        assert p6.params["dof"][-1] == 5.0

    def test_product_structure(self):
        p = make_student(3)
        total = 0.0
        for i in range(3):
            dof = p.params["dof"][i]
            sd = p.prior_sd[i]

            def joint(x):
                return student_t.pdf(x, df=dof) * math.exp(
                    -0.5 * (x / sd) ** 2
                ) / (sd * math.sqrt(2 * math.pi))

            z, _ = scipy_quad(joint, -np.inf, np.inf)
            total += math.log(z)
        assert p.lml_true == pytest.approx(total, abs=1e-8)

    def test_closed_form_matches_scipy(self):
        p = make_student(6)
        xs = np.concatenate([np.linspace(-50.0, 50.0, 401), [1e-8, 1e3, -1e5]])
        for log_norm, dof in zip(p.params["log_norm"], p.params["dof"]):
            closed = log_norm - student_t_log_kernel(xs, dof)
            assert np.allclose(closed, student_t.logpdf(xs, df=dof), rtol=1e-13, atol=0.0)
        X = np.random.default_rng(0).standard_t(3.0, size=(50, 6))
        ref = student_t.logpdf(X, df=p.params["dof"]).sum(axis=1)
        assert np.allclose(p.log_likelihood_rows(X), ref, rtol=1e-13, atol=0.0)

    def test_quadrature_matches_monte_carlo(self):
        p = make_student(1)
        rng = np.random.default_rng(0)
        n = 10**7
        xs = rng.normal(0.0, p.prior_sd[0], size=n)
        vals = student_t.pdf(xs, df=p.params["dof"][0])
        z_mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(math.exp(p.lml_true) - z_mc) < 4 * se


class TestCigar:
    def test_eigenvalue_ratio_exact(self):
        p = make_cigar(4, 0)
        ev = np.linalg.eigvalsh(p.params["cov_lik"])
        assert ev.max() / ev.min() == pytest.approx(100.0**2, rel=1e-9)

    def test_posterior_covariance_closed_form(self):
        p = make_cigar(3, 1)
        cov_prior = np.diag(p.prior_sd**2)
        oracle = np.linalg.inv(
            np.linalg.inv(p.params["cov_lik"]) + np.linalg.inv(cov_prior)
        )
        assert np.allclose(p.post_cov, oracle, atol=1e-10)

    def test_lml_matches_grid(self):
        p = make_cigar(2, 0)
        report = verify_ground_truth(p)
        assert report["lml"] == pytest.approx(p.lml_true, abs=1e-4)

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            make_cigar(1, 0)


@pytest.mark.parametrize("family", ["lumpy", "student", "cigar"])
@pytest.mark.parametrize("D", [0, -1])
def test_no_dimensions_rejected(family, D):
    with pytest.raises(ValueError, match=f"D={D}; a problem needs D >= 1"):
        make_problem(family, D, 0)


@pytest.mark.parametrize("family", ["lumpy", "student", "cigar"])
def test_negative_seed_rejected(family):
    # student draws nothing at random, so its seed was never checked
    with pytest.raises(ValueError, match="seed=-1; a problem needs seed >= 0"):
        make_problem(family, 2, -1)


class TestGroundTruthChecks:
    def test_importance_sampling_reports_ess(self):
        p = make_lumpy(4, 0)
        report = verify_ground_truth(p, rng=np.random.default_rng(5), n_is=50_000)
        assert report["method"] == "importance"
        assert report["ess"] > 1000
        assert report["lml"] == pytest.approx(p.lml_true, abs=0.02)

    @pytest.mark.parametrize("family", ["lumpy", "student", "cigar"])
    @pytest.mark.parametrize("D", [2, 3])
    def test_batched_report_matches_per_point_loop(self, family, D, monkeypatch):
        # more rows than one chunk, so the chunks are joined in order
        monkeypatch.setattr(benchmark, "N_GRID", 70)
        p = make_problem(family, D, 0)
        batched = verify_ground_truth(p, rng=np.random.default_rng(3), n_is=6000)
        rows = p.log_joint_rows
        monkeypatch.setattr(
            p, "log_joint_rows", lambda X: np.concatenate([rows(x[None, :]) for x in X])
        )
        looped = verify_ground_truth(p, rng=np.random.default_rng(3), n_is=6000)
        assert batched["method"] == looped["method"]
        for key in ("lml", "ess"):
            assert batched[key] == pytest.approx(looped[key], rel=1e-12, abs=1e-12)
        assert np.allclose(batched["mean"], looped["mean"], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", ["lumpy", "student", "cigar"])
    @pytest.mark.parametrize("D", [2, 3, 6])
    def test_point_is_its_row_of_a_batch(self, family, D):
        # the engine's single point and the check's batch share one formula
        p = make_problem(family, D, 0)
        rng = np.random.default_rng(4)
        X = p.prior_mean + p.prior_sd * rng.standard_normal((500, D)) * rng.uniform(
            0.01, 3.0, (500, 1)
        )
        batch = p.log_joint_rows(X)
        points = np.array([p.log_joint(x) for x in X])
        assert np.isfinite(batch).all()
        assert np.array_equal(points, batch)


class TestMetrics:
    def test_perfect_recovery(self):
        p = make_cigar(2, 0)
        assert metric_lml_error(p.lml_true, p) == 0.0
        assert metric_gskl(p.post_mean, p.post_cov, p) == pytest.approx(0.0, abs=1e-10)

    def test_unit_shift_gskl(self):
        p = make_cigar(2, 0)
        # For equal covariances gsKL = delta' inv(Sigma) delta / 2. A shift by
        # one column of chol(Sigma) is one SD along a whitened direction, so
        # delta' inv(Sigma) delta = 1 even though Sigma is strongly correlated.
        L = np.linalg.cholesky(p.post_cov)
        assert metric_gskl(p.post_mean + L[:, 0], p.post_cov, p) == pytest.approx(0.5)
        # A shift by one marginal SD along axis 0 is not a unit shift here:
        # it gives Sigma_00 * inv(Sigma)_00 / 2, far above 1/2.
        sd0 = math.sqrt(p.post_cov[0, 0])
        shifted = p.post_mean + np.array([sd0, 0.0])
        expected = 0.5 * p.post_cov[0, 0] * np.linalg.inv(p.post_cov)[0, 0]
        assert expected > 100
        assert metric_gskl(shifted, p.post_cov, p) == pytest.approx(expected)

    def test_singular_covariance_gives_inf(self):
        # a collapsed posterior (rank-one covariance) cannot be Gaussianized
        p = make_cigar(2, 0)
        singular = np.outer([1.0, 2.0], [1.0, 2.0])
        assert metric_gskl(p.post_mean, singular, p) == math.inf
        assert metric_gskl(p.post_mean, np.zeros((2, 2)), p) == math.inf


class TestRunner:
    @pytest.fixture(scope="class")
    def small_sweep(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "records.jsonl"
        # 0.4 x 50 (D + 2) = 80 evaluations: fast smoke sweep
        argv = ["run", "--family", "lumpy", "--dims", "2", "--seeds", "2",
                "--budget-multiplier", "0.4", "--out", str(out)]
        assert cli.main(argv) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        return records, out

    def test_record_counts_and_budget(self, small_sweep):
        records, out = small_sweep
        assert len(records) == 2
        for rec in records:
            assert rec["budget"] == 80
            assert rec["final"]["fevals"] <= 80

    def test_checkpoints_monotone(self, small_sweep):
        records, _ = small_sweep
        for rec in records:
            evals = [c[0] for c in rec["checkpoints"]]
            assert all(a <= b for a, b in zip(evals, evals[1:]))

    def test_records_persisted_as_jsonl(self, small_sweep):
        _, out = small_sweep
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["problem_id"] == "lumpy_D2_s0"

    def test_rerun_reproduces_records(self, small_sweep):
        records, _ = small_sweep
        again = execute_run("lumpy", 2, 0, records[0]["run_seed"], "pro", 0.4, 0)
        assert again.content_equal(BenchmarkRecord(**records[0]))

    def test_summary_and_csv(self, small_sweep, tmp_path):
        records, _ = small_sweep
        rows = summarize_records(records)
        assert len(rows) == 1
        row = rows[0]
        assert row["runs"] == 2
        assert row["lml_err_ci_lo"] <= row["lml_err_median"] <= row["lml_err_ci_hi"]
        write_summary_csv(rows, tmp_path / "summary.csv")
        write_long_csv(records, tmp_path / "long.csv")
        text = (tmp_path / "long.csv").read_text().splitlines()
        assert text[0] == "family,D,seed,evals,lml_err,gskl"
        assert len(text) > 2

    def test_summary_shares_of_stable_and_zero_sd_runs(self, tmp_path):
        def record(family, run_seed, stable, elbo_sd):
            final = {"lml_err": 0.1 * run_seed, "gskl": 0.01, "stable": stable,
                     "elbo_sd": elbo_sd}
            return {"family": family, "D": 2, "run_seed": run_seed, "final": final}

        records = [
            record("cigar", 0, True, 0.0),
            record("cigar", 1, True, 0.0),
            record("cigar", 2, False, 1e-300),
            record("cigar", 3, True, 0.2),
            record("lumpy", 0, False, 0.1),
        ]
        rows = summarize_records(records)
        assert [(r["family"], r["stable_share"], r["sd_zero_share"]) for r in rows] == [
            ("cigar", 0.75, 0.5),
            ("lumpy", 0.0, 0.0),
        ]
        write_summary_csv(rows, tmp_path / "summary.csv")
        header = (tmp_path / "summary.csv").read_text().splitlines()[0].split(",")
        assert header[-2:] == ["stable_share", "sd_zero_share"]

    def test_bootstrap_reproducible(self, small_sweep):
        records, _ = small_sweep
        r1 = summarize_records(records, boot_seed=3)
        r2 = summarize_records(records, boot_seed=3)
        assert r1 == r2

    def test_records_written_as_runs_end(self, tmp_path, monkeypatch):
        # a crash in the second run keeps the first run's record in ``out``
        def execute_run(family, D, problem_seed, run_seed, acq, *rest):
            if run_seed == 1:
                raise RuntimeError("run crashed")
            return BenchmarkRecord(
                problem_id=f"{family}_D{D}_s{problem_seed}", family=family, D=D,
                problem_seed=problem_seed, run_seed=run_seed, acq=acq, budget=80,
                checkpoints=[(10, 1.0, 1.0)], wall_time=0.0,
                final={"fevals": 10, "lml_err": 1.0, "gskl": 1.0},
            )

        monkeypatch.setattr(cli, "execute_run", execute_run)
        monkeypatch.setattr(
            cli, "verify_ground_truth",
            lambda problem: {"lml": problem.lml_true, "method": "stub"},
        )
        out = tmp_path / "records.jsonl"
        argv = ["run", "--family", "lumpy", "--dims", "2", "--seeds", "2", "--out", str(out)]
        with pytest.raises(RuntimeError, match="run crashed"):
            cli.main(argv)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines == [execute_run("lumpy", 2, 0, 0, "pro").to_json()]

    def test_x0_inside_prior_box(self):
        p = make_lumpy(2, 0)
        for seed in range(10):
            x0 = p.draw_x0(np.random.default_rng(seed))
            assert np.all(x0 >= p.prior_mean - p.prior_sd)
            assert np.all(x0 <= p.prior_mean + p.prior_sd)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            make_problem("banana", 2, 0)
