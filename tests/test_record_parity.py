import importlib.util
import json
import os

import numpy as np

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
