"""The traced benchmark rebinds engine functions by name.

``perfbench/tracer.py`` wraps functions it looks up on the ``funsor``
modules; deleting or renaming one of them breaks ``--trace 1`` at install
time.  This installs the tracer and restores it again.  Rules are timed
by name, so every rule and whole-term rule of the wrapped interpretations
must be among the names the tracer reports, and every rule metric the
benchmark declares must name one of them.
"""
import json
import os
import sys

import funsor.tensor
from funsor.interp import EXACT, LAZY
from funsor.optimize import OPTIMIZE

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracer  # noqa: E402


def test_tracer_installs_and_restores():
    original = funsor.tensor.tensor_apply
    t = tracer.Tracer()
    try:
        t.install()
        assert funsor.tensor.tensor_apply is not original
    finally:
        t.restore()
    assert funsor.tensor.tensor_apply is original


def test_tracer_times_every_rule_by_name():
    t = tracer.Tracer()
    try:
        t.install()
        names = set(t.rule_names)
    finally:
        t.restore()
    for interp in (LAZY, EXACT, OPTIMIZE):
        for rule in interp.rules + interp.whole_rules:
            assert rule.name in names, (interp.name, rule.name)


def test_benchmark_rule_metrics_name_traced_rules():
    """A declared rule metric the tracer never records fails ``--trace 1``
    with "benchmark did not measure"."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [m["name"] for m in json.load(f)["per_layer"]]
    declared = {
        m[len("interp.rule."):].rsplit(".", 1)[0]
        for m in metrics
        if m.startswith("interp.rule.")
    }
    assert declared
    t = tracer.Tracer()
    try:
        t.install()
        names = set(t.rule_names)
    finally:
        t.restore()
    assert declared <= names, sorted(declared - names)
