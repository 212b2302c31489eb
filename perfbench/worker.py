"""One benchmark process: a single client calling ``funsor.cli.main`` in a loop.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path;
its one argument is a JSON object of settings.  It first times
``import funsor`` plus one warm-up evaluation (a set-up sample).  In
``probe`` mode it stops there.  In ``timed`` mode it then runs a closed
loop for ``seconds`` over fresh models, generated between evaluations and
never inside a timing.  In ``traced`` mode it evaluates a fixed number of
fresh models twice each, plainly and under the layer tracer.  The last
line of its standard output is a JSON object with the raw measurements.
"""
import contextlib
import io
import json
import math
import resource
import sys
import time

TOL_NATS = 1e-6
TRACE_EVALS = 9
# Calibration-kernel time on an uncontended core of the machine the
# baseline was recorded on (2-vCPU KVM guest, Xeon family 6 model 143).
CAL_REF_S = 0.0125


def calibrate():
    """Time a fixed mix of interpreter, small-NumPy and memory work.

    Host contention that a virtual machine cannot see (no steal time is
    reported) changes how fast both the kernel and an evaluation run;
    dividing by the kernel's time taken around each evaluation removes
    most of that drift.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(8000):
        table[(i, "k")] = (i, i + 1)
        table.pop((i - 1, "k"), None)
    eye = np.eye(5) * 2.0
    for i in range(250):
        chol = np.linalg.cholesky(eye + i * 1e-6)
        np.einsum("ij,kj->ik", chol, chol)
    big = np.exp(np.arange(1_000_000, dtype=np.float64) * -1e-7)
    float(big.sum())
    return time.perf_counter() - start


def evaluate(call, path, flags):
    """Run ``funsor run`` in process; returns (seconds, payload, error)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = call(["run", path, *flags])
    except Exception as exc:  # a crash is a failed evaluation, not a dead run
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    lines = out.getvalue().strip().splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError):
        return elapsed, None, f"exit {code}, unparsable output {lines[-1:]!r}"
    if code != 0 or "error" in payload:
        return elapsed, None, f"exit {code}: {payload}"
    return elapsed, payload, None


class Checker:
    """Counts evaluations and failures against the NumPy references."""

    def __init__(self, levels):
        self.levels = levels
        self.attempted = 0
        self.failed = 0
        self.ref_err_max = 0.0
        self.errors = []

    def check(self, rec, payload, error):
        self.attempted += 1
        if error is None:
            err = abs(payload["log_value"] - rec["ref"])
            if not err <= TOL_NATS:
                error = f"log_value {payload['log_value']!r} vs reference {rec['ref']!r}"
            elif self.levels is not None and payload.get("levels") != self.levels:
                error = f"levels {payload.get('levels')!r}, expected {self.levels}"
            if not math.isnan(err):
                self.ref_err_max = max(self.ref_err_max, err)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{rec['path']}: {error}")
        return error is None


def main(settings):
    start = time.perf_counter()
    from funsor import cli

    setup_rec = settings["setup_model"]
    flags = settings["flags"]
    _, payload, error = evaluate(cli.main, setup_rec["path"], flags)
    setup_s = time.perf_counter() - start
    # Taken before any model generation, so only funsor's own memory counts.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_norm_s = setup_s * CAL_REF_S * 2.0 / (calibrate() + calibrate())

    import gen

    workload = gen.WORKLOADS[settings["workload"]]
    checker = Checker(workload.levels)
    checker.check(setup_rec, payload, error)
    result = {"setup_s": setup_s, "setup_norm_s": setup_norm_s, "rss_mb": rss_mb}
    if settings["mode"] == "probe":
        result.update(attempted=checker.attempted, failed=checker.failed,
                      ref_err_max=checker.ref_err_max, errors=checker.errors)
        return result

    pool = []

    def extend(count):
        indices = range(len(pool), len(pool) + count)
        pool.extend(gen.make_models(workload, settings["seed"], gen.TIMED, indices,
                                    settings["model_dir"]))

    if settings["mode"] == "traced":
        from tracer import Tracer, layer_metrics

        extend(TRACE_EVALS)
        tracer = Tracer()
        plain, traced, levels = [], [], []

        def run_traced(i, path):
            tracer.install()
            try:
                return evaluate(lambda argv: tracer.run(i, cli.main, argv), path, flags)
            finally:
                tracer.restore()

        for i, rec in enumerate(pool):
            # Alternate which half runs first so neither gets a warmer process.
            if i % 2:
                t_traced, p_traced, e_traced = run_traced(i, rec["path"])
                t_plain, p_plain, e_plain = evaluate(cli.main, rec["path"], flags)
            else:
                t_plain, p_plain, e_plain = evaluate(cli.main, rec["path"], flags)
                t_traced, p_traced, e_traced = run_traced(i, rec["path"])
            if e_traced is None and p_plain is not None and (
                p_traced["log_value"] != p_plain["log_value"]
            ):
                e_traced = (f"traced log_value {p_traced['log_value']!r} differs from "
                            f"untraced {p_plain['log_value']!r}")
            checker.check(rec, p_plain, e_plain)
            checker.check(rec, p_traced, e_traced)
            plain.append(t_plain)
            traced.append(t_traced)
            levels.append((p_traced or {}).get("levels") or 0)
        tracer.dump(settings["spans_path"])
        result["layers"] = layer_metrics(tracer.per_eval(), levels, tracer.rule_names)
        result["eval_s"] = plain
        result["traced_eval_s"] = traced
    else:
        times, norm, good = [], [], []
        wall = 0.0
        typical = setup_s
        while wall < settings["seconds"]:
            remaining = settings["seconds"] - wall
            extend(max(2, min(256, math.ceil(1.2 * remaining / typical) + 1)))
            seg_start = time.perf_counter()
            cal_before = calibrate()
            for rec in pool[len(times):]:
                dt, payload, error = evaluate(cli.main, rec["path"], flags)
                cal_after = calibrate()
                good.append(checker.check(rec, payload, error))
                times.append(dt)
                norm.append(dt * CAL_REF_S * 2.0 / (cal_before + cal_after))
                cal_before = cal_after
                if time.perf_counter() - seg_start >= remaining:
                    break
            wall += time.perf_counter() - seg_start
            typical = sorted(times)[len(times) // 2] + cal_before
        result["eval_s"] = times
        result["eval_norm_s"] = norm
        result["eval_ok"] = good
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        ref_err_max=checker.ref_err_max,
        errors=checker.errors,
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
