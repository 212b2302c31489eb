"""The value sweep's comparison, which checks that two source trees print
the same bits, run as a script on small recorded files."""

import json
import os
import subprocess
import sys

SWEEP = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "value_sweep.py"
)


def compare(tmp_path, a, b):
    paths = []
    for name, values in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(values, indent=1, sort_keys=True))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, SWEEP, "--compare", *paths],
        capture_output=True,
        text=True,
        timeout=60,
    )


RECORD = {
    "hmm K=16 T=8 draw=0 --interp exact": {"log_value": -31.25, "model": "hmm"},
    "kalman n=3 m=2 T=9 draw=1 --interp optimize": {
        "log_value": -20.123456789012345,
        "model": "kalman",
    },
}


class TestValueSweepCompare:
    def test_equal_files_exit_0(self, tmp_path):
        proc = compare(tmp_path, RECORD, dict(RECORD))
        assert proc.returncode == 0
        assert "0 of 2 invocations differ" in proc.stdout

    def test_one_differing_key_exits_1_and_is_named(self, tmp_path):
        key = "kalman n=3 m=2 T=9 draw=1 --interp optimize"
        other = json.loads(json.dumps(RECORD))
        other[key]["log_value"] = -20.123456789012348
        proc = compare(tmp_path, RECORD, other)
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert lines[0] == key
        assert "1 of 2 invocations differ" in proc.stdout
        assert "hmm K=16" not in proc.stdout

    def test_references_are_not_compared_and_give_distances(self, tmp_path):
        """A file written without references compares with one written with
        them; a differing invocation also prints each side's distance to
        the reference."""
        key = "kalman n=3 m=2 T=9 draw=1 --interp optimize"
        with_refs = json.loads(json.dumps(RECORD))
        with_refs[key]["reference"] = -20.0
        proc = compare(tmp_path, RECORD, with_refs)
        assert proc.returncode == 0
        assert "0 of 2 invocations differ" in proc.stdout

        with_refs[key]["log_value"] = -20.5
        proc = compare(tmp_path, RECORD, with_refs)
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert lines[0] == key
        assert "reference" not in lines[2]
        label, dists = lines[3].split(": ")
        a_dist, b_dist, ref = dists.split(" ", 2)
        assert label == "  |value - ref|" and ref == "(ref -20.0)"
        assert abs(float(a_dist) - 0.123456789012345) < 1e-12
        assert float(b_dist) == 0.5
        assert "1 of 2 invocations differ" in proc.stdout


def test_gmm_reference_is_the_enumerated_evidence():
    """The sweep's gmm reference agrees with the per-component enumeration
    the model tests use."""
    import numpy as np

    sys.path.insert(0, os.path.dirname(SWEEP))
    import value_sweep
    from test_models import gmm_enumeration

    doc = value_sweep.draw_gmm(value_sweep.gen.rng_for(0, 4, 8))
    keys = ("loadings", "offsets", "noises", "prior_mean", "prior_cov", "data")
    want = gmm_enumeration(*(np.asarray(doc[k]) for k in keys))
    assert abs(value_sweep.gmm_evidence(doc) - want) <= 1e-10
