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

    def test_summary_per_group(self, tmp_path):
        """The last lines summarize each (family, interpretation, scan)
        group: moves, their direction against the reference, the largest
        move and each side's largest distance to the reference."""
        flags = " --interp exact --scan "
        a = {
            "kalman T=8 draw=0" + flags + "sequential": {"log_value": -10.5, "reference": -10.0},
            "kalman T=8 draw=1" + flags + "sequential": {"log_value": -20.0, "reference": -20.25},
            "kalman T=8 draw=2" + flags + "sequential": {"log_value": -30.0, "reference": -30.0},
            "kalman T=8 draw=0" + flags + "parallel": {"log_value": -1.0, "reference": -1.0},
            "hmm T=8 draw=0" + flags + "parallel": {"log_value": -2.0},
        }
        b = json.loads(json.dumps(a))
        b["kalman T=8 draw=0" + flags + "sequential"]["log_value"] = -10.25
        b["kalman T=8 draw=1" + flags + "sequential"]["log_value"] = -20.0 + 0.125
        b["hmm T=8 draw=0" + flags + "parallel"] = {"error": "boom"}
        proc = compare(tmp_path, a, b)
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert lines[-4] == "3 of 5 invocations differ"
        assert lines[-3:] == [
            "hmm exact parallel: 1 of 1 moved, 0 closer, 0 farther;"
            " max |b - a| None; max |value - ref| None -> None",
            "kalman exact parallel: 0 of 1 moved, 0 closer, 0 farther;"
            " max |b - a| None; max |value - ref| 0.0 -> 0.0",
            "kalman exact sequential: 2 of 3 moved, 1 closer, 1 farther;"
            " max |b - a| 0.25; max |value - ref| 0.5 -> 0.375",
        ]


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
