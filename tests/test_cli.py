"""Tests for the command line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from funsor.approx import MonteCarlo
from funsor.cli import RunConfig, main
from funsor.errors import BoundsError, FunsorTypeError
from funsor.interp import EXACT, interpret
from funsor.markov import SCAN_MODES, scan_mode
from funsor.models import (
    GmmSpec,
    HmmSpec,
    KalmanSpec,
    SldsSpec,
    build_gmm,
    build_hmm,
    build_kalman,
    build_slds,
)
from test_models import gmm_enumeration

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import gen  # noqa: E402


def write_model(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def hmm_doc(rng, T=6, K=3):
    p = rng.uniform(0.2, 1.0, size=(K, K))
    return {
        "model": "hmm",
        "transition": (p / p.sum(axis=1, keepdims=True)).tolist(),
        "emission_loglik": rng.normal(size=(T, K)).tolist(),
    }


def kalman_doc(rng, n=2, m=1, T=5, bias=False):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(m, m))
    doc = {
        "model": "kalman",
        "F": (0.5 * rng.normal(size=(n, n))).tolist(),
        "Q": (a @ a.T + 0.5 * np.eye(n)).tolist(),
        "H": rng.normal(size=(m, n)).tolist(),
        "R": (b @ b.T + 0.5 * np.eye(m)).tolist(),
        "observations": rng.normal(size=(T, m)).tolist(),
    }
    if bias:
        c = rng.normal(size=(m, m))
        doc["bias_cov"] = (c @ c.T + 0.5 * np.eye(m)).tolist()
    return doc


def slds_doc(rng, K=2, n=2, T=3, m=1):
    a = rng.normal(size=(n, n))
    p = rng.uniform(0.2, 1.0, size=(K, K))
    return {
        "model": "slds",
        "transition": (p / p.sum(axis=1, keepdims=True)).tolist(),
        "F": (0.5 * rng.normal(size=(K, n, n))).tolist(),
        "Q": (a @ a.T + 0.5 * np.eye(n)).tolist(),
        "H": rng.normal(size=(m, n)).tolist(),
        "R": (0.4 * np.eye(m)).tolist(),
        "window": 2,
        "observations": rng.normal(size=(T, m)).tolist(),
    }


def gmm_doc(rng, K=2, N=2, dx=1):
    return {
        "model": "gmm",
        "loadings": rng.normal(size=(K, dx, 2)).tolist(),
        "offsets": rng.normal(size=(K, dx)).tolist(),
        "noises": [(0.5 * np.eye(dx)).tolist(), (0.8 * np.eye(dx)).tolist()],
        "prior_mean": rng.normal(size=2).tolist(),
        "prior_cov": np.eye(2).tolist(),
        "data": rng.normal(size=(N, dx)).tolist(),
    }


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(model_path="m.json")
        assert config.interpretation is None
        assert config.semiring == "sumproduct"
        assert config.scan == "sequential"
        assert config.seed == 0
        assert config.samples == 100

    def test_unknown_choices_rejected(self):
        with pytest.raises(FunsorTypeError):
            RunConfig(model_path="m", interpretation="magic")
        with pytest.raises(FunsorTypeError):
            RunConfig(model_path="m", semiring="tropical")
        with pytest.raises(FunsorTypeError):
            RunConfig(model_path="m", scan="diagonal")

    def test_montecarlo_needs_samples_and_sums(self):
        with pytest.raises(BoundsError):
            RunConfig(model_path="m", interpretation="montecarlo", samples=0)
        with pytest.raises(FunsorTypeError):
            RunConfig(
                model_path="m",
                interpretation="montecarlo",
                semiring="maxproduct",
            )


class TestRunHmm:
    def test_payload_shape_and_value(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        doc = hmm_doc(rng)
        path = write_model(tmp_path, "hmm.json", doc)
        code, payload, err = run_json(capsys, ["run", path])
        assert code == 0
        assert err == ""
        assert list(payload) == ["model", "interpretation", "log_value", "wall_ms"]
        assert payload["model"] == "hmm"
        assert payload["interpretation"] == "exact"
        spec = HmmSpec(
            transition=np.array(doc["transition"]),
            emission_loglik=np.array(doc["emission_loglik"]),
        )
        expected = float(interpret(EXACT, build_hmm(spec)).atom.data)
        np.testing.assert_allclose(payload["log_value"], expected, rtol=1e-12)

    def test_parallel_scan_reports_levels(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        T = 6
        path = write_model(tmp_path, "hmm.json", hmm_doc(rng, T=T))
        code, payload, _ = run_json(capsys, ["run", path, "--scan", "parallel"])
        assert code == 0
        assert list(payload)[-1] == "levels"
        assert payload["levels"] == math.ceil(math.log2(T))

    def test_interpretations_agree_on_discrete_chain(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = write_model(tmp_path, "hmm.json", hmm_doc(rng))
        values = {}
        for interp in ("exact", "optimize", "momentmatching", "montecarlo"):
            code, payload, _ = run_json(capsys, ["run", path, "--interp", interp])
            assert code == 0
            assert payload["interpretation"] == interp
            values[interp] = payload["log_value"]
        base = values["exact"]
        for got in values.values():
            np.testing.assert_allclose(got, base, rtol=1e-9)

    def test_maxproduct_scores_best_path(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        doc = hmm_doc(rng, T=4, K=2)
        path = write_model(tmp_path, "hmm.json", doc)
        code, payload, _ = run_json(
            capsys, ["run", path, "--semiring", "maxproduct"]
        )
        assert code == 0
        trans = np.log(np.array(doc["transition"]))
        emis = np.array(doc["emission_loglik"])
        K = trans.shape[0]
        best = -np.inf
        states = [(a, b, c, d, e)
                  for a in range(K) for b in range(K) for c in range(K)
                  for d in range(K) for e in range(K)]
        for s in states:
            score = np.log(1.0 / K)
            for t in range(4):
                score += trans[s[t], s[t + 1]] + emis[t, s[t + 1]]
            best = max(best, float(score))
        np.testing.assert_allclose(payload["log_value"], best, rtol=1e-10)

    @pytest.mark.parametrize("scan", ["sequential", "parallel"])
    def test_non_finite_log_value_is_strict_json(self, tmp_path, capsys, scan):
        # The state cannot move, and each step rules out the other state.
        doc = {
            "model": "hmm",
            "transition": np.eye(2).tolist(),
            "emission_loglik": [[0.0, -np.inf], [-np.inf, 0.0]],
        }
        path = write_model(tmp_path, "hmm.json", doc)
        code, out, _ = run_cli(capsys, ["run", path, "--scan", scan])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["log_value"] == "-inf"
        assert float(payload["log_value"]) == -np.inf

    def test_repeat_runs_identical_but_for_wall_ms(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = write_model(tmp_path, "hmm.json", hmm_doc(rng))
        argv = ["run", path, "--interp", "montecarlo", "--seed", "7"]
        _, first, _ = run_json(capsys, argv)
        _, second, _ = run_json(capsys, argv)
        first.pop("wall_ms")
        second.pop("wall_ms")
        assert first == second


    @pytest.mark.parametrize("family", ["hmm", "kalman"])
    def test_montecarlo_is_one_evaluation(self, family, tmp_path, capsys, monkeypatch):
        """All particles are drawn in one ``interpret`` call; with no
        mixture to sample it prints Exact's value."""
        from funsor import cli

        rng = np.random.default_rng(5)
        doc = hmm_doc(rng) if family == "hmm" else kalman_doc(rng, bias=True)
        path = write_model(tmp_path, f"{family}.json", doc)
        _, exact, _ = run_json(capsys, ["run", path])
        calls = []

        def spy(interp, term):
            calls.append(interp.name)
            return interpret(interp, term)

        monkeypatch.setattr(cli, "interpret", spy)
        _, mc, _ = run_json(capsys, ["run", path, "--interp", "montecarlo"])
        assert calls == ["montecarlo"]
        assert mc["log_value"] == exact["log_value"]


class TestRunOtherFamilies:
    def test_kalman_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        doc = kalman_doc(rng)
        path = write_model(tmp_path, "kalman.json", doc)
        code, payload, _ = run_json(capsys, ["run", path])
        assert code == 0
        spec = KalmanSpec(
            F=np.array(doc["F"]),
            Q=np.array(doc["Q"]),
            H=np.array(doc["H"]),
            R=np.array(doc["R"]),
            observations=np.array(doc["observations"]),
        )
        expected = float(interpret(EXACT, build_kalman(spec)).atom.data)
        np.testing.assert_allclose(payload["log_value"], expected, rtol=1e-10)

    def test_kalman_bias_variant_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        path = write_model(tmp_path, "kb.json", kalman_doc(rng, bias=True))
        code, payload, _ = run_json(capsys, ["run", path, "--scan", "parallel"])
        assert code == 0
        assert np.isfinite(payload["log_value"])

    def test_kalman_rejects_maxproduct(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        path = write_model(tmp_path, "k.json", kalman_doc(rng))
        code, payload, _ = run_json(
            capsys, ["run", path, "--semiring", "maxproduct"]
        )
        assert code == 1
        assert payload["error"] == "TypeError"

    def test_slds_honours_interp(self, tmp_path, capsys):
        """Without ``--interp`` a switching model runs under moment
        matching; an explicit one is honoured and reported."""
        rng = np.random.default_rng(13)
        path = write_model(tmp_path, "slds.json", slds_doc(rng))
        code, default, err = run_json(capsys, ["run", path])
        assert code == 0 and err == ""
        assert default["interpretation"] == "momentmatching"
        _, matched, _ = run_json(capsys, ["run", path, "--interp", "momentmatching"])
        assert matched["log_value"] == default["log_value"]
        code, sampled, err = run_json(capsys, ["run", path, "--interp", "montecarlo"])
        assert code == 0 and err == ""
        assert sampled["interpretation"] == "montecarlo"
        assert sampled["log_value"] != default["log_value"]

    def test_gmm_runs_deterministically(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        path = write_model(tmp_path, "gmm.json", gmm_doc(rng))
        code, first, err = run_json(capsys, ["run", path])
        assert code == 0
        assert first["model"] == "gmm"
        assert first["interpretation"] == "momentmatching"
        assert err == ""
        _, second, _ = run_json(capsys, ["run", path])
        assert first["log_value"] == second["log_value"]


GMM_KEYS = ("loadings", "offsets", "noises", "prior_mean", "prior_cov", "data")
SLDS_KEYS = ("transition", "F", "Q", "H", "R")


def standard_error(term, seed, samples, scan="sequential"):
    """The standard error of Monte Carlo's estimate of ``term``, from the
    spread of the particles it draws with ``seed``."""
    with scan_mode(scan):
        cells = interpret(MonteCarlo(seed, samples), term).atom.data.reshape(-1)
    w = np.exp(cells - cells.max())
    return float(w.std() / (w.mean() * np.sqrt(w.size)))


class TestEveryFamilyHonoursInterp:
    """Switching models and mixtures run under the interpretation and the
    scan asked for: Monte Carlo samples their switch states and component
    labels, and Exact and Optimize, which cannot integrate a mixture,
    exit 1 with a named error."""

    SAMPLES = 20000

    def test_gmm_montecarlo_matches_enumeration(self, tmp_path, capsys):
        doc = gmm_doc(np.random.default_rng(40), N=6)
        path = write_model(tmp_path, "gmm.json", doc)
        arrays = [np.asarray(doc[k]) for k in GMM_KEYS]
        exact = gmm_enumeration(*arrays)
        term = build_gmm(GmmSpec.from_moments(*arrays))
        values = set()
        for seed in (0, 1, 2):
            argv = ["run", path, "--interp", "montecarlo",
                    "--samples", str(self.SAMPLES), "--seed", str(seed)]
            code, payload, err = run_json(capsys, argv)
            assert code == 0 and err == ""
            se = standard_error(term, seed, self.SAMPLES)
            assert abs(payload["log_value"] - exact) <= 4 * se
            values.add(payload["log_value"])
        assert len(values) == 3

    @pytest.mark.parametrize("scan", SCAN_MODES)
    def test_slds_montecarlo_matches_the_unwindowed_filter(self, scan, tmp_path, capsys):
        """With a window as long as the chain the reference filter
        collapses nothing, so it is the exact evidence."""
        doc = slds_doc(np.random.default_rng(41), T=4)
        doc["window"] = 4
        path = write_model(tmp_path, "slds.json", doc)
        arrays = [np.asarray(doc[k]) for k in SLDS_KEYS]
        exact = gen.slds_filter(*arrays, doc["observations"], doc["window"])
        term = build_slds(SldsSpec(*arrays), np.asarray(doc["observations"]))
        for seed in (0, 1):
            argv = ["run", path, "--interp", "montecarlo", "--scan", scan,
                    "--samples", str(self.SAMPLES), "--seed", str(seed)]
            code, payload, err = run_json(capsys, argv)
            assert code == 0 and err == ""
            se = standard_error(term, seed, self.SAMPLES, scan)
            assert abs(payload["log_value"] - exact) <= 4 * se

    @pytest.mark.parametrize("scan", SCAN_MODES)
    @pytest.mark.parametrize("interp", ["exact", "optimize"])
    @pytest.mark.parametrize("family", ["slds", "gmm"])
    def test_a_lazy_mixture_is_no_closed_form(self, family, interp, scan, tmp_path, capsys):
        doc = (slds_doc if family == "slds" else gmm_doc)(np.random.default_rng(42))
        path = write_model(tmp_path, f"{family}.json", doc)
        code, out, err = run_cli(capsys, ["run", path, "--interp", interp, "--scan", scan])
        assert code == 1 and err == ""
        assert len(out.splitlines()) == 1
        payload = json.loads(out)
        assert set(payload) == {"error", "detail"}
        assert payload["error"] == "NoClosedForm"
        assert payload["detail"].startswith(f"{interp} leaves logaddexp over ")

    @pytest.mark.parametrize("window", [1, 2])
    def test_moment_matching_refuses_the_parallel_scan(self, window, tmp_path, capsys):
        """The doubling scan's levels would collapse two-ended segments of
        the switching chain, another approximation than the filter's."""
        doc = slds_doc(np.random.default_rng(43))
        doc["window"] = window
        path = write_model(tmp_path, "slds.json", doc)
        argv = ["run", path, "--interp", "momentmatching", "--scan", "parallel"]
        code, payload, _ = run_json(capsys, argv)
        assert code == 1
        assert payload["error"] == "ScanUnsupported"
        code, _, _ = run_json(capsys, argv[:-1] + ["sequential"])
        assert code == 0


def kalman_filter(F, Q, H, R, observations, bias_cov=None):
    """Log evidence by a moment-form Kalman filter.

    ``y_t = H x_{t+1} + bias + noise`` with ``x_{t+1} = F x_t + noise`` and
    ``x_0 ~ N(0, I)``; the shared bias rides along as static extra state.
    """
    n, m = F.shape[0], H.shape[0]
    d = n if bias_cov is None else n + m
    Fa, Qa, cov = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    Ha = np.zeros((m, d))
    Fa[:n, :n], Qa[:n, :n], Ha[:, :n], cov[:n, :n] = F, Q, H, np.eye(n)
    if bias_cov is not None:
        Fa[n:, n:], Ha[:, n:], cov[n:, n:] = np.eye(m), np.eye(m), bias_cov
    mean, total = np.zeros(d), 0.0
    for y in observations:
        mean, cov = Fa @ mean, Fa @ cov @ Fa.T + Qa
        S = Ha @ cov @ Ha.T + R
        e = y - Ha @ mean
        L = np.linalg.cholesky(S)
        z = np.linalg.solve(L, e)
        total -= 0.5 * (m * np.log(2 * np.pi) + z @ z) + np.sum(np.log(np.diag(L)))
        gain = np.linalg.solve(S, Ha @ cov).T
        mean, cov = mean + gain @ e, cov - gain @ S @ gain.T
        cov = 0.5 * (cov + cov.T)
    return total


class TestOddLengthParallelChains:
    """The doubling scan joins an odd level's last cell, apart from the
    merged pairs, in front of the cells after the level; with a bias the
    observation precision is one cell shared over time, which the merged
    pairs keep."""

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 7, 13, 2047])
    def test_scans_agree_with_moment_filter(self, tmp_path, capsys, T):
        rng = np.random.default_rng(700 + T)
        n, m = 3, 2
        F = 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0]
        spd = [rng.normal(size=(k, k)) for k in (n, m, m)]
        Q, R, B = (a @ a.T + 0.5 * np.eye(len(a)) for a in spd)
        H = rng.normal(size=(m, n))
        bias, x, ys = np.linalg.cholesky(B) @ rng.normal(size=m), rng.normal(size=n), []
        for _ in range(T):
            x = F @ x + np.linalg.cholesky(Q) @ rng.normal(size=n)
            ys.append(H @ x + bias + np.linalg.cholesky(R) @ rng.normal(size=m))
        arrays = {"F": F, "Q": Q, "H": H, "R": R, "bias_cov": B, "observations": ys}
        doc = {"model": "kalman", **{k: np.asarray(v).tolist() for k, v in arrays.items()}}
        path = write_model(tmp_path, "kalman.json", doc)
        values = {}
        for scan in ("parallel", "sequential"):
            code, payload, _ = run_json(capsys, ["run", path, "--scan", scan])
            assert code == 0
            values[scan] = payload["log_value"]
            if scan == "parallel":
                assert payload["levels"] == math.ceil(math.log2(T))
        want = kalman_filter(F, Q, H, R, np.array(ys), bias_cov=B)
        assert abs(values["parallel"] - values["sequential"]) <= 1e-6
        assert abs(values["parallel"] - want) <= 1e-6


class TestSwitchingChainParallelScan:
    """On a switching chain the doubling scan's first level leaves the
    switch mixture lazy under Exact and Optimize, so its step hands the
    factors to the term path; Monte Carlo samples that mixture.  The values
    are pinned from the scan on terms at every level."""

    MONTE_CARLO = {7: -12.097223019786979, 8: -15.545498907872048, 13: -35.71227706427142}

    @pytest.mark.parametrize("T", [7, 8, 13])
    def test_outputs_are_pinned(self, T, tmp_path, capsys):
        doc = slds_doc(np.random.default_rng(900 + T), T=T)
        path = write_model(tmp_path, "slds.json", doc)
        for interp in ("exact", "optimize"):
            argv = ["run", path, "--interp", interp, "--scan", "parallel"]
            code, payload, _ = run_json(capsys, argv)
            assert code == 1
            assert payload == {
                "error": "NoClosedForm",
                "detail": f"{interp} leaves logaddexp over 's_curr' lazy",
            }
        argv = ["run", path, "--interp", "montecarlo", "--scan", "parallel", "--samples", "4"]
        code, payload, _ = run_json(capsys, argv)
        assert code == 0
        assert payload["log_value"] == self.MONTE_CARLO[T]
        # The switching chain links T - 1 cells.
        assert payload["levels"] == math.ceil(math.log2(T - 1))


class TestRunErrors:
    def test_missing_file(self, capsys):
        code, payload, _ = run_json(capsys, ["run", "/nonexistent/model.json"])
        assert code == 1
        assert payload["error"] == "IOError"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, payload, _ = run_json(capsys, ["run", str(path)])
        assert code == 1
        assert payload["error"] == "ParseError"

    def test_non_object_document(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, payload, _ = run_json(capsys, ["run", str(path)])
        assert code == 1
        assert payload["error"] == "TypeError"

    def test_unknown_family(self, tmp_path, capsys):
        path = write_model(tmp_path, "m.json", {"model": "ising"})
        code, payload, _ = run_json(capsys, ["run", str(path)])
        assert code == 1
        assert payload["error"] == "TypeError"

    def test_missing_required_key(self, tmp_path, capsys):
        path = write_model(tmp_path, "m.json", {"model": "hmm"})
        code, payload, _ = run_json(capsys, ["run", str(path)])
        assert code == 1
        assert payload["error"] == "TypeError"
        assert "transition" in payload["detail"]

    def test_fuel_limit_is_read_from_environment(
        self, tmp_path, capsys, monkeypatch
    ):
        rng = np.random.default_rng(15)
        # A sequential HMM fires one rule; a Kalman chain fires several.
        path = write_model(tmp_path, "kalman.json", kalman_doc(rng))
        monkeypatch.setenv("FUNSOR_FUEL", "2")
        code, payload, _ = run_json(capsys, ["run", path])
        assert code == 1
        assert payload["error"] == "FuelExhausted"


def _with(doc_fn, key, value):
    """A model file from ``doc_fn`` with ``key`` replaced by ``value(rng)``."""

    def make(tmp_path, rng):
        doc = doc_fn(rng)
        doc[key] = value(rng)
        return write_model(tmp_path, "bad.json", doc)

    return make


def _not_utf8(tmp_path, rng):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"model": "hmm", "transition": "\xff"}')
    return str(path)


def _with_entry(doc_fn, key, index, value):
    """A model file from ``doc_fn`` with one entry of array ``key`` replaced."""

    def make(tmp_path, rng):
        doc = doc_fn(rng)
        arr = np.array(doc[key])
        arr[index] = value
        doc[key] = arr.tolist()
        return write_model(tmp_path, "bad.json", doc)

    return make


def _skew(rng):
    """An asymmetric matrix whose lower triangle, all Cholesky reads, is
    positive definite."""
    return [[1.0, 0.9], [-0.9, 1.0]]


# Each file is rejected by a shape, finiteness, type or definiteness check
# (or the decoder), never by a traceback, a silent broadcast or a NaN result.
MALFORMED_FILES = {
    "hmm_emission_width": (
        _with(
            lambda rng: hmm_doc(rng, K=2),
            "emission_loglik",
            lambda rng: rng.normal(size=(4, 3)).tolist(),
        ),
        "TypeError",
    ),
    "hmm_negative_probability": (
        _with(
            lambda rng: hmm_doc(rng, K=2),
            "transition",
            lambda rng: [[1.5, -0.5], [0.5, 0.5]],
        ),
        "TypeError",
    ),
    "hmm_1d_transition": (
        _with(hmm_doc, "transition", lambda rng: [0.5, 0.5]),
        "TypeError",
    ),
    "kalman_1d_observations": (
        _with(kalman_doc, "observations", lambda rng: rng.normal(size=5).tolist()),
        "TypeError",
    ),
    "slds_three_dynamics_for_two_states": (
        _with(slds_doc, "F", lambda rng: np.eye(2)[None].repeat(3, axis=0).tolist()),
        "TypeError",
    ),
    "gmm_one_offset_row_for_two_components": (
        _with(gmm_doc, "offsets", lambda rng: [[0.3]]),
        "TypeError",
    ),
    "not_utf8": (_not_utf8, "ParseError"),
    "kalman_infinite_observation": (
        _with_entry(kalman_doc, "observations", (2, 0), np.inf),
        "TypeError",
    ),
    "kalman_nan_dynamics": (_with_entry(kalman_doc, "F", (0, 1), np.nan), "TypeError"),
    "hmm_nan_emission": (_with_entry(hmm_doc, "emission_loglik", (1, 2), np.nan), "TypeError"),
    "hmm_positive_infinite_emission": (
        _with_entry(hmm_doc, "emission_loglik", (3, 0), np.inf),
        "TypeError",
    ),
    "slds_window_string": (_with(slds_doc, "window", lambda rng: "two"), "TypeError"),
    "slds_window_nan": (_with(slds_doc, "window", lambda rng: np.nan), "TypeError"),
    "slds_window_fraction": (_with(slds_doc, "window", lambda rng: 1.5), "TypeError"),
    "slds_window_bool": (_with(slds_doc, "window", lambda rng: True), "TypeError"),
    # A singular covariance has no information form.
    "kalman_singular_init_cov": (
        _with(kalman_doc, "init_cov", lambda rng: [[1.0, 1.0], [1.0, 1.0]]),
        "RankDeficient",
    ),
    "kalman_zero_Q": (
        _with(kalman_doc, "Q", lambda rng: np.zeros((2, 2)).tolist()),
        "RankDeficient",
    ),
    "kalman_zero_R": (_with(kalman_doc, "R", lambda rng: [[0.0]]), "RankDeficient"),
    "kalman_indefinite_Q": (
        _with(kalman_doc, "Q", lambda rng: [[1.0, 0.0], [0.0, -1.0]]),
        "RankDeficient",
    ),
    "kalman_zero_bias_cov": (
        _with(lambda rng: kalman_doc(rng, bias=True), "bias_cov", lambda rng: [[0.0]]),
        "RankDeficient",
    ),
    "slds_zero_Q": (
        _with(slds_doc, "Q", lambda rng: np.zeros((2, 2)).tolist()),
        "RankDeficient",
    ),
    "slds_zero_R": (_with(slds_doc, "R", lambda rng: [[0.0]]), "RankDeficient"),
    "slds_singular_init_cov": (
        _with(slds_doc, "init_cov", lambda rng: [[1.0, 1.0], [1.0, 1.0]]),
        "RankDeficient",
    ),
    "gmm_zero_noise": (
        _with(gmm_doc, "noises", lambda rng: [[[0.5]], [[0.0]]]),
        "RankDeficient",
    ),
    "gmm_singular_prior_cov": (
        _with(gmm_doc, "prior_cov", lambda rng: [[1.0, 1.0], [1.0, 1.0]]),
        "RankDeficient",
    ),
    # An asymmetric covariance is rejected before its lower triangle alone
    # could pass the Cholesky test.
    "kalman_asymmetric_Q": (_with(kalman_doc, "Q", _skew), "TypeError"),
    "kalman_asymmetric_R": (
        _with(lambda rng: kalman_doc(rng, m=2), "R", _skew),
        "TypeError",
    ),
    "kalman_asymmetric_init_cov": (_with(kalman_doc, "init_cov", _skew), "TypeError"),
    "kalman_asymmetric_bias_cov": (
        _with(lambda rng: kalman_doc(rng, m=2, bias=True), "bias_cov", _skew),
        "TypeError",
    ),
    "slds_asymmetric_Q": (_with(slds_doc, "Q", _skew), "TypeError"),
    "slds_asymmetric_R": (
        _with(lambda rng: slds_doc(rng, m=2), "R", _skew),
        "TypeError",
    ),
    "slds_asymmetric_init_cov": (_with(slds_doc, "init_cov", _skew), "TypeError"),
    "gmm_asymmetric_noises": (
        _with(
            lambda rng: gmm_doc(rng, dx=2),
            "noises",
            lambda rng: [_skew(rng), np.eye(2).tolist()],
        ),
        "TypeError",
    ),
    "gmm_asymmetric_prior_cov": (
        _with(gmm_doc, "prior_cov", lambda rng: [[1.0, 3.0], [0.0, 1.0]]),
        "TypeError",
    ),
}

# The key each asymmetric case must name first in its detail.
ASYMMETRIC_KEYS = {
    case: case.split("_asymmetric_")[1]
    for case in MALFORMED_FILES
    if "_asymmetric_" in case
}


class TestMalformedModelFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_reports_error_and_exits_1(self, case, tmp_path, capsys):
        make, code_name = MALFORMED_FILES[case]
        path = make(tmp_path, np.random.default_rng(21))
        code, payload, _ = run_json(capsys, ["run", path])
        assert code == 1
        assert payload["error"] == code_name
        assert set(payload) == {"error", "detail"}

    @pytest.mark.parametrize("case", sorted(ASYMMETRIC_KEYS))
    def test_asymmetric_covariance_detail_names_key(self, case, tmp_path, capsys):
        make, _ = MALFORMED_FILES[case]
        path = make(tmp_path, np.random.default_rng(21))
        _, payload, _ = run_json(capsys, ["run", path])
        key = ASYMMETRIC_KEYS[case]
        assert payload["detail"].startswith(f"{key} must be symmetric")

    def test_impossible_emissions_still_run(self, tmp_path, capsys):
        doc = hmm_doc(np.random.default_rng(22))
        emission = np.array(doc["emission_loglik"])
        emission[::2, 0] = -np.inf
        doc["emission_loglik"] = emission.tolist()
        code, payload, _ = run_json(capsys, ["run", write_model(tmp_path, "hmm.json", doc)])
        assert code == 0
        spec = HmmSpec(transition=np.array(doc["transition"]), emission_loglik=emission)
        # The CLI runs the sequential scan by default; the library, the parallel one.
        with scan_mode("sequential"):
            expected = float(interpret(EXACT, build_hmm(spec)).atom.data)
        assert math.isfinite(expected)
        assert payload["log_value"] == expected

    def test_seed_outside_philox_key_range(self, tmp_path, capsys):
        path = write_model(tmp_path, "hmm.json", hmm_doc(np.random.default_rng(23)))
        for seed in ("-1", str(2**128)):
            argv = ["run", path, "--interp", "montecarlo", "--seed", seed]
            code, payload, _ = run_json(capsys, argv)
            assert code == 1
            assert payload["error"] == "BoundsError"
            assert set(payload) == {"error", "detail"}

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "markov", "--lengths", "4"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        rng = np.random.default_rng(20)
        path = write_model(tmp_path, "hmm.json", hmm_doc(rng))
        proc = subprocess.run(
            ["funsor", "run", path],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["model"] == "hmm"

    def test_module_invocation(self, tmp_path):
        rng = np.random.default_rng(21)
        path = write_model(tmp_path, "hmm.json", hmm_doc(rng))
        proc = subprocess.run(
            [sys.executable, "-m", "funsor.cli", "run", path],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["model"] == "hmm"

    def test_sparse_slds_prints_finite_json(self, tmp_path):
        """A zero in the switch transition leaves mixture cells without
        mass; the run still prints a finite value as strict JSON and
        writes nothing on stderr."""
        doc = slds_doc(np.random.default_rng(22), T=8)
        doc["transition"] = [[1.0, 0.0], [0.5, 0.5]]
        path = write_model(tmp_path, "slds.json", doc)
        proc = subprocess.run(
            [sys.executable, "-m", "funsor.cli", "run", path,
             "--interp", "momentmatching"],
            capture_output=True,
            text=True,
            timeout=60,
        )

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        assert proc.returncode == 0
        assert proc.stderr == ""
        payload = json.loads(proc.stdout, parse_constant=reject)
        assert math.isfinite(payload["log_value"])
