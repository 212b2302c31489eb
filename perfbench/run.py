"""Benchmark launcher: ``python3 perfbench/run.py --workload NAME --seed N``.

Runs from the root of a funsor checkout.  It pins BLAS and OpenMP to one
thread, then starts every measuring process itself, one at a time:

* with ``--trace 0``, four set-up probes (fresh processes that time
  ``import funsor`` plus one warm-up evaluation) and one worker that takes
  a fifth set-up sample and then runs a closed loop of ``funsor run``
  evaluations with one client for ``--seconds``;
* with ``--trace 1``, one worker that evaluates a fixed set of fresh
  models plainly and under the layer tracer (see ``tracer.py``).

Every evaluation is checked against an independent NumPy reference
(``gen.py``).  The metrics named in ``BENCHMARK.json`` are printed one per
line with their units, followed by one JSON line with the result.  Use
``--workload all`` to run every workload in turn.  Raw data go to
``.perfbench/`` in the checkout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170
# Printed on every run besides the metrics BENCHMARK.json names.
RAW_UNITS = {
    "eval_ms_p50": "ms", "eval_ms_tail": "ms", "evals_per_s": "1/s", "setup_raw_s": "s",
    "failed_frac": "fraction", "ref_err_max": "nats",
}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def spawn(settings, env, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(settings)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """Highest percentile with at least ten samples above it: (value, pct).

    With ten samples or fewer this is the maximum.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def run_workload(name, seed, seconds, traced, env, workdir, deadline):
    import gen

    workload = gen.WORKLOADS[name]
    model_dir = workdir / f"models-{name}-{seed}-{os.getpid()}"
    model_dir.mkdir(parents=True, exist_ok=True)
    try:
        probes = 0 if traced else SETUP_PROBES
        setup_models = gen.make_models(workload, seed, gen.SETUP, range(probes + 1), model_dir)
        base = {"workload": name, "seed": seed, "flags": list(workload.flags),
                "model_dir": str(model_dir)}
        samples = []
        for rec in setup_models[:probes]:
            left = deadline - time.monotonic()
            samples.append(spawn({**base, "mode": "probe", "setup_model": rec}, env, left))
        left = deadline - time.monotonic()
        main = spawn({**base, "mode": "traced" if traced else "timed",
                      "setup_model": setup_models[probes], "seconds": seconds,
                      "spans_path": str(workdir / f"spans-{name}-seed{seed}.json")},
                     env, left)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    samples.append(main)

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    # Latency is taken over completed evaluations (all of them if none
    # completed); throughput counts completed ones over the time of all.
    good = main.get("eval_ok") or [True] * len(main["eval_s"])
    completed = sum(good)

    def latency_ms(samples_s):
        kept = [t for t, ok in zip(samples_s, good) if ok] or samples_s
        p50 = median(kept) * 1e3
        tail_s, tail_pct = tail(kept)
        return p50, tail_s * 1e3, tail_pct, len(kept)

    p50, tail_ms, tail_pct, count = latency_ms(main["eval_s"])
    metrics = {
        "eval_ms_p50": p50,
        "eval_ms_tail": tail_ms,
        "setup_s": median(s["setup_norm_s"] for s in samples),
        "setup_raw_s": median(s["setup_s"] for s in samples),
        "peak_rss_mb": median(s["rss_mb"] for s in samples),
        "failed_frac": failed / attempted,
        "ref_err_max": max(s["ref_err_max"] for s in samples),
    }
    notes = {
        "eval_ms_tail": f"p{tail_pct:.1f} of {count} evaluations,"
        f" {10 if count > 10 else 0} beyond it",
        "setup_s": f"median of {len(samples)} processes, normalized",
        "setup_raw_s": f"median of {len(samples)} processes",
        "peak_rss_mb": f"median of {len(samples)} processes after set-up",
    }
    if traced:
        metrics.update(main["layers"])
        # Each pair ran back to back, so its ratio cancels most machine drift.
        metrics["trace.overhead_frac"] = median(
            t / p for t, p in zip(main["traced_eval_s"], main["eval_s"])
        ) - 1.0
    else:
        norm_p50, norm_tail, _, _ = latency_ms(main["eval_norm_s"])
        metrics["eval_norm_ms_p50"] = norm_p50
        metrics["eval_norm_ms_tail"] = norm_tail
        notes["eval_norm_ms_tail"] = notes["eval_ms_tail"]
        metrics["evals_per_s"] = completed / sum(main["eval_s"])
        metrics["evals_per_norm_s"] = completed / sum(main["eval_norm_s"])
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "flags": list(workload.flags), "sizes": workload.sizes,
        "inputs": gen.DISTRIBUTIONS[workload.family], "attempted": attempted, "failed": failed,
        "errors": [e for s in samples for e in s["errors"]],
        "setup_s": [s["setup_s"] for s in samples],
        "setup_norm_s": [s["setup_norm_s"] for s in samples], "eval_s": main["eval_s"],
        "eval_norm_s": main.get("eval_norm_s"),
        "traced_eval_s": main.get("traced_eval_s"),
        "metrics": metrics, "notes": notes,
    }
    with open(workdir / f"report-{name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def select(report, specs):
    """The metrics named in ``specs``, each with its unit."""
    missing = [m["name"] for m in specs if m["name"] not in report["metrics"]]
    if missing:
        raise RuntimeError(f"benchmark did not measure {missing}")
    return {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
            for m in specs}


def show(report, specs):
    """Print every metric of the run with its unit, failures included."""
    shown = select(report, specs)
    for extra, unit in RAW_UNITS.items():
        if extra not in shown and extra in report["metrics"]:
            shown[extra] = {"value": report["metrics"][extra], "unit": unit}
    print(f"# {report['workload']} seed={report['seed']} "
          f"flags={' '.join(report['flags'])} sizes={report['sizes']}")
    for key, entry in shown.items():
        note = report["notes"].get(key)
        print(f"{report['workload']}.{key} = {entry['value']:.6g} {entry['unit']}"
              + (f"  ({note})" if note else ""))
    for err in report["errors"]:
        print(f"# failed: {err}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "funsor" / "cli.py").is_file():
        sys.exit(f"run.py: no funsor sources at {ROOT / 'src' / 'funsor'}")
    if args.seconds < 1:
        sys.exit("run.py: --seconds must be at least 1")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    import gen

    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in gen.WORKLOADS]
    if unknown:
        sys.exit(f"run.py: unknown workload {unknown[0]!r}; pick one of "
                 f"{', '.join(gen.WORKLOADS)} or all")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    reports = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    env, workdir, deadline))
        show(reports[-1], specs)
    if len(reports) == 1:
        metrics = select(reports[0], specs)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in select(r, specs).items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
