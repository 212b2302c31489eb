"""The traced benchmark rebinds engine functions by name.

``perfbench/tracer.py`` wraps functions it looks up on the ``funsor``
modules; deleting or renaming one of them breaks ``--trace 1`` at install
time.  This installs the tracer and restores it again.
"""
import os
import sys

import funsor.tensor

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

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
