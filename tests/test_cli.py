import json

import numpy as np
import pytest

from vbmc import benchmark, cli
from vbmc.cli import main
from vbmc.core import VBMC
from vbmc.transforms import ParameterTransform
from vbmc.variational import VariationalPosterior


def test_generate_writes_problems(tmp_path, capsys):
    out = tmp_path / "problems.jsonl"
    code = main(["generate", "--family", "lumpy", "cigar", "--dims", "2",
                 "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert {l["family"] for l in lines} == {"lumpy", "cigar"}
    for line in lines:
        assert "lml_true" in line and len(line["post_mean"]) == 2


def test_generate_check_flag(tmp_path):
    out = tmp_path / "problems.jsonl"
    code = main(["generate", "--family", "student", "--dims", "2",
                 "--check", "--out", str(out)])
    assert code == 0
    entry = json.loads(out.read_text().splitlines()[0])
    assert entry["check"]["method"] == "grid"
    assert abs(entry["check"]["lml"] - entry["lml_true"]) < 0.05


def test_run_and_summarize_round_trip(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    code = main([
        "run", "--family", "lumpy", "--dims", "2", "--seeds", "1",
        "--budget-multiplier", "0.3", "--out", str(records),
        "--long-csv", str(tmp_path / "long.csv"),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "lumpy D=2" in captured
    assert records.exists()
    assert (tmp_path / "long.csv").exists()

    summary = tmp_path / "summary.csv"
    code = main(["summarize", str(records), "--out", str(summary)])
    assert code == 0
    header = summary.read_text().splitlines()[0]
    assert header.startswith("family,D,runs,lml_err_median")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--family", "lumpy", "cigar", "--dims", "1"], "needs D >= 2"),
        (["run", "--dims", "0"], "D=0"),
        (["generate", "--family", "lumpy", "cigar", "--dims", "2", "0"], "D=0"),
        (["run", "--seed-start", "-1"], "--seed-start must be at least 0, got -1"),
        (["run", "--meta-seed", "-1"], "--meta-seed must be at least 0, got -1"),
        (["run", "--family", "student", "--problem-seed", "-1"], "seed=-1"),
        (["generate", "--family", "student", "--problem-seed", "-1"], "seed=-1"),
        (["run", "--seeds", "0"], "--seeds must be at least 1, got 0"),
        (["run", "--seeds", "-2"], "--seeds must be at least 1, got -2"),
        (["run", "--budget-multiplier", "inf"], "budget multiplier inf is not finite"),
        (["run", "--budget-multiplier", "nan"], "budget multiplier nan is not finite"),
    ],
    ids=["run_cigar_d1", "run_d0", "generate_d0", "run_seed_start_negative",
         "run_meta_seed_negative", "run_problem_seed_negative",
         "generate_problem_seed_negative", "run_no_seeds", "run_negative_seeds",
         "run_budget_multiplier_inf", "run_budget_multiplier_nan"],
)
def test_run_and_generate_reject_bad_pair_before_any_check(
    tmp_path, capsys, monkeypatch, argv, message
):
    def no_check(problem, *args, **kwargs):
        raise AssertionError("ground truth checked")

    monkeypatch.setattr(benchmark, "verify_ground_truth", no_check)
    monkeypatch.setattr(cli, "verify_ground_truth", no_check)
    out = tmp_path / "out.jsonl"
    code = main([*argv, "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"vbmc {argv[0]}: ")
    assert message in err[0]


def test_run_rejects_budget_below_initial_design(tmp_path, capsys, monkeypatch):
    def no_check(problem, *args, **kwargs):
        raise AssertionError("ground truth checked")

    monkeypatch.setattr(benchmark, "verify_ground_truth", no_check)
    monkeypatch.setattr(cli, "verify_ground_truth", no_check)
    out = tmp_path / "records.jsonl"
    # 0.01 x 50 (D + 2) = 2 evaluations, fewer than the initial design's 10
    code = main(["run", "--seeds", "1", "--budget-multiplier", "0.01", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("vbmc run: budget 2 at D=2")


def test_generate_skips_cigar_d1(tmp_path):
    out = tmp_path / "problems.jsonl"
    code = main(["generate", "--family", "lumpy", "cigar", "--dims", "1",
                 "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [(l["family"], l["D"]) for l in lines] == [("lumpy", 1)]


def test_summarize_rejects_empty_records(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text("\n")
    summary = tmp_path / "summary.csv"
    code = main(["summarize", str(records), "--out", str(summary)])
    assert code == 2
    assert not summary.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert str(records) in err[0]


# a record with every field that summarize reads, on one line
RECORD = (
    '{"family": "lumpy", "D": 2, '
    '"final": {"lml_err": 0.1, "gskl": 0.2, "elbo_sd": 0.01, "stable": true}}\n'
)


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),
        ('{"family": "lumpy"}\nnot json\n', "line 2 of"),
        ("[1, 2]\n", "is not a JSON object"),
        ('{"family": "lumpy", "D": 2}\n', "has no key 'final'"),
        (RECORD.replace('"final": {', '"final": [{').replace("}}", "}]}"),
         "has final [{"),
        (RECORD.replace('"D": 2', '"D": [2]'), "has D [2], not of type int"),
        (RECORD.replace('"lml_err": 0.1', '"lml_err": "abc"'),
         "has final.lml_err 'abc', not of type int or float"),
        (RECORD.replace('"lml_err": 0.1', '"lml_err": null'),
         "has final.lml_err None, not of type int or float"),
    ],
    ids=["missing_file", "line_not_json", "line_not_object", "not_a_record",
         "final_array", "D_array", "lml_err_string", "lml_err_null"],
)
def test_summarize_rejects_bad_records_file(tmp_path, capsys, content, message):
    records = tmp_path / "records.jsonl"
    if content is not None:
        records.write_text(content)
    summary = tmp_path / "summary.csv"
    code = main(["summarize", str(records), "--out", str(summary)])
    assert code == 2
    assert not summary.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert message in err[0]
    assert str(records) in err[0]


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),
        ('{"problem": ', "is not JSON"),
        ("[1, 2]", "the config in"),
        ('{"problem": {"family": "lumpy", "D": 2}, "options": [60]}', "the options in"),
        ('{"problem": "lumpy"}', "the problem in"),
        ('{"problem": {"family": "lumpy", "D": 2}, "bounds": null}', "the bounds in"),
        ('{"problem": {"family": "lumpy", "D": 2}, "options": {"max_fevals": "abc"}}',
         "max_fevals must be a positive integer, got 'abc'"),
        ('{"problem": {"family": "lumpy", "D": 2}, "options": {"max_fevals": 12.5}}',
         "got 12.5"),
        ('{"problem": {"family": "lumpy", "D": 2}, "options": {"max_fevals": true}}',
         "got True"),
        ('{"problem": {"family": "lumpy", "D": 2}, "seed": "abc"}',
         "seed must be an integer, got 'abc'"),
    ],
    ids=["missing_file", "not_json", "config_array", "options_array", "problem_string",
         "bounds_null", "max_fevals_string", "max_fevals_float", "max_fevals_bool",
         "seed_string"],
)
def test_infer_rejects_bad_config_file(tmp_path, capsys, monkeypatch, content, message):
    def no_evaluation(self, u):
        raise AssertionError("log joint evaluated")

    monkeypatch.setattr(VBMC, "_evaluate", no_evaluation)
    cfg_path = tmp_path / "config.json"
    if content is not None:
        cfg_path.write_text(content)
    out = tmp_path / "result.json"
    code = main(["infer", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert message in err[0]
    assert str(cfg_path) in err[0]


def test_infer_from_config(tmp_path):
    config = {
        "problem": {"family": "lumpy", "D": 2, "seed": 0},
        "options": {"max_fevals": 60},
        "seed": 1,
        "x0": [0.5, 0.5],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    diag = tmp_path / "diag.jsonl"
    code = main(["infer", str(cfg_path), "--out", str(out),
                 "--diagnostics", str(diag)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["fevals"] <= 60
    assert result["posterior"]["D"] == 2
    assert abs(result["elbo_mean"] - result["lml_true"]) < 5.0
    assert len(diag.read_text().splitlines()) >= 2


def test_infer_with_bounds_override(tmp_path):
    config = {
        "problem": {"family": "lumpy", "D": 2, "seed": 0},
        "options": {"max_fevals": 40},
        "bounds": {
            "lb": [None, None],
            "ub": [None, None],
            "plb": [-0.5, -0.5],
            "pub": [1.5, 1.5],
        },
        "seed": 0,
        "x0": [0.5, 0.5],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    code = main(["infer", str(cfg_path), "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["transform"]["plb"] == [-0.5, -0.5]
    # no finite hard bound: the target is the problem's, and so is the truth
    assert result["lml_true"] == benchmark.make_problem("lumpy", 2, 0).lml_true


def test_infer_with_a_hard_box_writes_no_truth(tmp_path):
    config = {
        "problem": {"family": "lumpy", "D": 2, "seed": 0},
        "options": {"max_fevals": 20},
        "bounds": {"lb": [-0.25, -0.25], "ub": [1.25, 1.25], "plb": [0, 0], "pub": [1, 1]},
        "x0": [0.5, 0.5],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    assert main(["infer", str(cfg_path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    # the hard box truncates the target, so the unbounded problem's truth is wrong
    assert result["lml_true"] is None
    assert result["transform"]["lb"] == [-0.25, -0.25]


def test_infer_writes_the_frame_and_the_whitened_lines(tmp_path):
    config = {"problem": {"family": "cigar", "D": 2, "seed": 0}, "options": {"max_fevals": 40}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    diag = tmp_path / "diag.jsonl"
    assert main(["infer", str(cfg_path), "--out", str(out), "--diagnostics", str(diag)]) == 0
    result = json.loads(out.read_text())
    lines = [json.loads(line) for line in diag.read_text().splitlines()]
    assert all(type(line["whitened"]) is bool for line in lines)
    assert not lines[0]["whitened"] and lines[-1]["whitened"]
    frame = result["frame"]
    assert len(frame["center"]) == 2 and np.shape(frame["matrix"]) == (2, 2)
    # the written mixture, mapped through the frame and the transform, is the posterior
    post = result["posterior"]
    vp = VariationalPosterior(post["w"], np.reshape(post["mu"], (post["K"], post["D"])),
                              post["sigma"], post["lambda"])
    W, c = np.array(frame["matrix"]), np.array(frame["center"])
    mean, cov = vp.moments()
    transform = ParameterTransform.from_config(result["transform"])
    mean, cov = transform.moments_to_original(c + W @ mean, W @ cov @ W.T)
    problem = benchmark.make_problem("cigar", 2, 0)
    assert benchmark.metric_gskl(mean, cov, problem) < 0.05
    assert abs(result["elbo_mean"] - result["lml_true"]) < 0.05


def test_infer_without_whitening_writes_a_null_frame(tmp_path):
    config = {"problem": {"family": "lumpy", "D": 2, "seed": 0}, "options": {"max_fevals": 30}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    assert main(["infer", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["frame"] is None


def test_infer_rejects_unknown_option(tmp_path, capsys):
    config = {
        "problem": {"family": "lumpy", "D": 2, "seed": 0},
        "options": {"max_fevals": 60, "n_active": 3},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    code = main(["infer", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "n_active" in err[0]
    assert "allowed: max_fevals, acq, diag_gp_samples" in err[0]


def test_infer_rejects_unknown_acquisition(tmp_path, capsys):
    config = {
        "problem": {"family": "lumpy", "D": 2, "seed": 0},
        "options": {"max_fevals": 40, "acq": "ucb"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    code = main(["infer", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "'ucb'" in err[0]
    assert "allowed: us, pro" in err[0]


@pytest.mark.parametrize(
    "block, message",
    [
        ({"problem": {"family": "gauss", "D": 2}}, "unknown family 'gauss'"),
        ({"problem": {"family": "cigar", "D": 1}}, "needs D >= 2"),
        (
            {
                "problem": {"family": "lumpy", "D": 2},
                "bounds": {"lb": [0.0, None], "ub": [None, None],
                           "plb": [0.2, 0.2], "pub": [0.8, 0.8]},
            },
            "half-bounded",
        ),
        ({"problem": {"family": "lumpy"}}, "missing key 'D'"),
        ({"problem": {"D": 2}}, "missing key 'family'"),
        (
            {"problem": {"family": "lumpy", "D": 2}, "x0": [0.5, 0.5, 0.5]},
            "x0 has 3 values; the problem has D=2",
        ),
        ({"problem": {"family": "lumpy", "D": 2}, "x0": []}, "x0 has 0 values"),
        ({"problem": {"family": "lumpy", "D": 0}}, "D=0; a problem needs D >= 1"),
        ({"problem": {"family": "lumpy", "D": [2]}}, "problem.D must be an integer, got [2]"),
        ({"problem": {"family": "lumpy", "D": True}}, "problem.D must be an integer, got True"),
        ({"problem": {"family": "lumpy", "D": 2.7}}, "problem.D must be an integer, got 2.7"),
        ({"problem": {"family": "lumpy", "D": 2.0}}, "problem.D must be an integer, got 2.0"),
        (
            {"problem": {"family": "lumpy", "D": 2, "seed": [1]}},
            "problem.seed must be an integer, got [1]",
        ),
        (
            {"problem": {"family": "lumpy", "D": 2}, "seed": {"a": 1}},
            "seed must be an integer, got {'a': 1}",
        ),
        ({"problem": {"family": "lumpy", "D": 2}, "seed": False}, "seed must be an integer"),
        (
            {"problem": {"family": "lumpy", "D": 2}, "x0": {"a": 1}},
            "the x0 in",
        ),
        ({"problem": {"family": "lumpy", "D": 2}, "x0": [0.5, "a"]}, "the x0 in"),
        (
            {"problem": {"family": "lumpy", "D": 2}, "x0": [float("nan"), 0.5]},
            "x0 must be finite, got [nan, 0.5]",
        ),
        (
            {
                "problem": {"family": "lumpy", "D": 2},
                "bounds": {"lb": [None, "inf"], "ub": [None, "inf"],
                           "plb": [-1.0, -1.0], "pub": [1.0, 1.0]},
            },
            "dimension 1 has lb=inf and ub=inf",
        ),
        (
            {"problem": {"family": "lumpy", "D": 2}, "options": {"diag_gp_samples": "false"}},
            "diag_gp_samples must be true or false, got 'false'",
        ),
        ({"problem": {"family": "lumpy", "D": 2}, "seed": -1}, "seed must be non-negative, got -1"),
        (
            {"problem": {"family": "student", "D": 2, "seed": -1}},
            "seed=-1; a problem needs seed >= 0",
        ),
        *[
            (
                {
                    "problem": {"family": "lumpy", "D": 2},
                    "bounds": {"lb": [None, None], "ub": [None, None],
                               "plb": [-1.0, -1.0], "pub": [1.0, 1.0], key: value},
                },
                f"bounds.{key} must be an array of numbers, got {got}",
            )
            for key, value, got in [
                ("lb", None, "None"),
                ("lb", 5, "5"),
                ("lb", [{}, None], "[{}, None]"),
                ("plb", [{}, -1], "[{}, -1]"),
                ("plb", [True, -1], "[True, -1]"),
            ]
        ],
    ],
    ids=["unknown_family", "cigar_d1", "half_bounded", "missing_D", "missing_family",
         "x0_wrong_length", "x0_empty", "D0", "D_array", "D_bool", "D_fraction", "D_float",
         "problem_seed_array", "seed_object", "seed_bool", "x0_object", "x0_string_entry",
         "x0_nan", "bounds_plus_inf_lb", "diag_gp_samples_string", "seed_negative", "problem_seed_negative",
         "lb_null", "lb_number", "lb_object_entry", "plb_object_entry", "plb_bool_entry"],
)
def test_infer_rejects_bad_problem_or_bounds(tmp_path, capsys, monkeypatch, block, message):
    # the engine must not start: no log-joint evaluation happens
    def no_evaluation(self, u):
        raise AssertionError("log joint evaluated")

    monkeypatch.setattr(VBMC, "_evaluate", no_evaluation)
    config = {"options": {"max_fevals": 40}, **block}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    code = main(["infer", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert message in err[0]
    assert str(cfg_path) in err[0]
