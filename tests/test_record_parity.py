import importlib.util
import json
import os

import numpy as np
import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "record_parity.py")
spec = importlib.util.spec_from_file_location("record_parity", PATH)
record_parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_parity)


def test_env_line_records_threads_versions_and_exp_target():
    kind, payload = record_parity.env_line().split(" ", 1)
    env = json.loads(payload)
    assert kind == "env"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[var] == "1"
    assert env["numpy"] == np.__version__
    assert isinstance(env["numpy_exp_float64"], str) and env["numpy_exp_float64"]


def record(wall_time=1.0, checkpoints=((10, 0.5, 0.2), (15, 0.3, 0.1)), lml_err=0.3, gskl=0.1):
    """A hand-built record, with clamp counts and no failure reasons."""
    final = {"lml_err": lml_err, "gskl": gskl, "fevals": checkpoints[-1][0]}
    rec = {"problem_id": "lumpy_D2_s0", "checkpoints": [list(c) for c in checkpoints],
           "wall_time": wall_time, "final": final}
    return [rec, 0, 0, []]


def test_compare_ignores_wall_time():
    assert record_parity.compare(record(wall_time=1.0), record(wall_time=7.5)) == "content_equal"


def test_compare_names_the_first_changed_checkpoint():
    changed = record(checkpoints=((10, 0.5, 0.2), (15, 0.31, 0.1)), lml_err=0.31)
    verdict = record_parity.compare(record(), changed)
    assert verdict.startswith("differs from checkpoint 1 (fevals 15 vs 15);")
    assert "lml_err 0.3 vs 0.31" in verdict


def test_compare_reports_a_failed_run():
    failed = [None, 0, 0, ["VBMCError: repeated log-joint failures"]]
    verdict = record_parity.compare(record(), failed)
    assert verdict == "a run failed: A ok; B ['VBMCError: repeated log-joint failures']"


def test_summary_counts_equal_runs_and_compares_medians_of_runs_both_finished():
    failed = [None, 0, 0, ["VBMCError: repeated log-joint failures"]]
    a = {"0": record(), "1": record(lml_err=1.5), "2": record()}
    b = {"0": record(), "1": record(lml_err=0.2), "2": failed}
    verdicts = [record_parity.compare(a[s], b[s]) for s in a]
    line = record_parity.summary("lumpy-d2", a, b, verdicts)
    assert line == (
        "summary lumpy-d2: 1 of 3 runs content_equal; medians over the 2 runs both "
        "sides finished, A vs B: lml_err 0.9 vs 0.25, gskl 0.1 vs 0.1, fevals 15 vs 15; "
        "lml_err or gskl >= 1: A 1, B none"
    )


def test_summary_without_a_run_both_sides_finished():
    failed = [None, 0, 0, ["VBMCError: repeated log-joint failures"]]
    a, b = {"0": failed}, {"0": record(lml_err=2.0)}
    line = record_parity.summary("cigar-d2", a, b, ["a run failed"])
    assert line == (
        "summary cigar-d2: 0 of 1 runs content_equal; no run finished on both sides; "
        "lml_err or gskl >= 1: A none, B 0"
    )
    assert record_parity.paired("cigar-d2", a, b) == "paired cigar-d2: no run finished on both sides"


def test_paired_counts_seeds_where_b_is_lower_or_higher():
    failed = [None, 0, 0, ["VBMCError: repeated log-joint failures"]]
    # seed 2's gskl differs only past the six printed digits: equal, like seed 0's
    a = {"0": record(lml_err=0.3, gskl=0.1), "1": record(lml_err=0.5, gskl=0.2),
         "2": record(lml_err=0.4, gskl=0.3), "3": record(lml_err=9.0)}
    b = {"0": record(lml_err=0.2, gskl=0.1), "1": record(lml_err=0.7, gskl=0.1),
         "2": record(lml_err=0.1, gskl=0.3000000004), "3": failed}
    line = record_parity.paired("lumpy-d6", a, b)
    assert line == (
        "paired lumpy-d6: over the 3 runs both sides finished, B against A: "
        "lml_err lower 2, higher 1; gskl lower 1, higher 0; largest lml_err 0.5 vs 0.7"
    )


def test_failed_child_is_named_with_its_side_and_exit_code(tmp_path):
    good = tmp_path / "good"
    (good / "perfbench").mkdir(parents=True)
    (good / "perfbench" / "workloads.py").write_text("WORKLOADS = {}\n")
    bad = tmp_path / "bad"  # no perfbench/workloads.py: the child cannot import it
    bad.mkdir()
    with pytest.raises(SystemExit) as info:
        record_parity.main([str(bad), str(good)])
    assert str(info.value) == f"child process failed: side A ({bad}) exited with code 1"


def test_unknown_workload_ends_each_child_before_any_run(tmp_path, capfd):
    roots = []
    for side in "ab":
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        # a run would fail: a workload entry is None, and run_once is missing
        (root / "perfbench" / "workloads.py").write_text(
            "WORKLOADS = {'lumpy-d2': None, 'cigar-d2': None}\n"
        )
        roots.append(str(root))
    with pytest.raises(SystemExit) as info:
        record_parity.main([*roots, "--workload", "lumpy-d2", "nope"])
    assert str(info.value) == (
        f"child process failed: side A ({roots[0]}) exited with code 2; "
        f"side B ({roots[1]}) exited with code 2"
    )
    err = capfd.readouterr().err.splitlines()
    assert err == ["unknown workload nope; known: lumpy-d2, cigar-d2"] * 2


def test_peak_rss_line_from_hand_given_numbers():
    assert record_parity.peak_rss(104.4, 89.71) == "peak_rss A 104.4 MB, B 89.7 MB"


def test_peak_rss_line_ends_the_output_of_two_children(tmp_path, capsys):
    roots = []
    for side in "ab":
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "workloads.py").write_text("WORKLOADS = {}\n")
        roots.append(str(root))
    assert record_parity.main(roots) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("env ")
    kind, a, a_mb, unit_a, b, b_mb, unit_b = lines[-1].replace(",", "").split()
    assert (kind, a, unit_a, b, unit_b) == ("peak_rss", "A", "MB", "B", "MB")
    assert float(a_mb) > 0 and float(b_mb) > 0
