"""Record the log values of a fixed grid of seeded ``funsor run`` calls.

Two checkouts that should compute the same bits can be compared by
running the sweep once against each source tree and diffing the files::

    python tools/value_sweep.py --src path/to/old/src --out old.json
    python tools/value_sweep.py --out new.json
    python tools/value_sweep.py --compare old.json new.json

The grid covers hmm (sumproduct and maxproduct), kalman with and without
a shared observation bias, slds and gmm, under every interpretation and
both scan modes, at even and odd chain lengths (8, 9, 13 and 33), for
three model draws each.  The doubling scan joins the last cell of an odd
level apart from its pairs: on hmm and kalman chains, at 9 and 33 only
the first level is odd, at 13 a later level is too (an slds chain has
one cell fewer).  Models come from ``perfbench/gen.py`` (gmm
models are drawn here), and each call runs in this process through
``funsor.cli.main``.  Values are stored as the CLI prints them, so JSON
round-trips them exactly.

Each payload also records an independent reference for the model as
``reference``: ``gen.py``'s for chains, and for gmm models the exact
evidence summed over every component assignment (``gmm_evidence``).
Max-product models have none.
``--compare`` compares the engine's part of the payloads only, so files
written without references still compare, and prints each differing
invocation's distance ``|value - ref|`` on both sides.  It ends with one
summary line per (family, interpretation, scan) group: how many
invocations moved, how many of those moved closer to their reference and
how many farther, the largest move ``|b - a|``, and the largest
``|value - ref|`` over the group on each side.
"""
import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import numpy as np  # noqa: E402

INTERPS = ("exact", "optimize", "momentmatching", "montecarlo")
SCANS = ("sequential", "parallel")
LENGTHS = (8, 9, 13, 33)
DRAWS = (0, 1, 2)
SAMPLES = 4


def draw_gmm(rng, K=3, N=5, dx=2, dz=2):
    return {
        "model": "gmm",
        "loadings": rng.normal(size=(K, dx, dz)),
        "offsets": rng.normal(size=(K, dx)),
        "noises": np.stack([gen.spd(rng, dx) for _ in range(K)]),
        "prior_mean": rng.normal(size=dz),
        "prior_cov": gen.spd(rng, dz),
        "data": rng.normal(size=(N, dx)),
    }


def gmm_evidence(doc):
    """Exact log evidence of a gmm model, summed over all ``K ** N``
    component assignments.

    Given an assignment the stacked data are Gaussian: data of one
    component share its latent vector, so they covary through
    ``W P W^T``, and each datum adds its component's noise.
    """
    W, b, R, mu, P, ys = (np.asarray(doc[k]) for k in (
        "loadings", "offsets", "noises", "prior_mean", "prior_cov", "data"))
    K, N = W.shape[0], ys.shape[0]
    logs = []
    for cs in itertools.product(range(K), repeat=N):
        mean = np.concatenate([W[c] @ mu + b[c] for c in cs])
        cov = np.block([
            [(ci == cj) * W[ci] @ P @ W[cj].T + (i == j) * R[ci] for j, cj in enumerate(cs)]
            for i, ci in enumerate(cs)
        ])
        logs.append(gen._gauss_logpdf(ys.reshape(-1) - mean, cov) - N * np.log(K))
    return gen._logsumexp(np.array(logs))


def reference(doc, semiring):
    """The log evidence of ``doc`` by a reference; None for max-product."""
    if semiring != "sumproduct":
        return None
    return gmm_evidence(doc) if doc["model"] == "gmm" else gen.references([doc])[0]


def models(T, draw):
    """``(label, doc, semirings)`` for each model family at length ``T``."""
    rng = lambda stream: gen.rng_for(draw, stream, T)  # noqa: E731
    hmm = gen.draw_hmm(rng(0), 16, T)
    yield f"hmm K=16 T={T}", hmm, ("sumproduct", "maxproduct")
    for bias in (False, True):
        doc = gen.draw_kalman(rng(1 + bias), 3, 2, T, bias)
        yield f"kalman n=3 m=2 T={T} bias={bias}", doc, ("sumproduct",)
    slds = gen.draw_slds(rng(3), 2, 2, 1, T, 2)
    yield f"slds K=2 n=2 m=1 T={T} window=2", slds, ("sumproduct",)
    # A mixture has no chain; ``T`` only seeds its draw.
    yield f"gmm K=3 N=5 T={T}", draw_gmm(rng(4)), ("sumproduct",)


def invocations(directory):
    """``(id, argv, ref)`` for every call of the grid, writing the model files."""
    for T in LENGTHS:
        for draw in DRAWS:
            for label, doc, semirings in models(T, draw):
                path = os.path.join(directory, f"{len(os.listdir(directory))}.json")
                gen.write_model(doc, path)
                for semiring in semirings:
                    ref = reference(doc, semiring)
                    for interp in INTERPS:
                        if interp == "montecarlo" and semiring != "sumproduct":
                            continue
                        for scan in SCANS:
                            flags = [
                                "--interp", interp, "--scan", scan,
                                "--semiring", semiring, "--samples", str(SAMPLES),
                            ]
                            yield f"{label} draw={draw} {' '.join(flags)}", [
                                "run", path, *flags
                            ], ref


def sweep():
    from funsor.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as directory:
        for key, argv, ref in invocations(directory):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            payload = json.loads(buf.getvalue())
            payload.pop("wall_ms", None)
            if ref is not None:
                payload["reference"] = ref
            out[key] = payload
    return out


def engine(payload):
    """A recorded payload without its reference."""
    return {k: v for k, v in payload.items() if k != "reference"} if payload else payload


def value(payload):
    """A recorded payload's log value, or None without one."""
    if not payload or "log_value" not in payload:
        return None
    return float(payload["log_value"])


def distance(payload, ref):
    """``|value - ref|`` of a recorded payload, or None without a value."""
    v = value(payload)
    return None if v is None else abs(v - ref)


def reference_of(sides):
    """The reference either side of an invocation records, or None."""
    return next((p["reference"] for p in sides if p and "reference" in p), None)


def group(key):
    """The (family, interpretation, scan) an invocation's key names."""
    words = key.split()
    flag = lambda name: words[words.index(name) + 1] if name in words else "-"  # noqa: E731
    return words[0], flag("--interp"), flag("--scan")


def _max(values):
    """The largest of ``values`` that is not NaN; None for none."""
    values = [v for v in values if v == v]
    return max(values) if values else None


def summary(a, b, diffs):
    """One line per (family, interpretation, scan) group of the keys."""
    groups = {}
    for k in set(a) | set(b):
        groups.setdefault(group(k), []).append(k)
    lines = []
    for name, keys in sorted(groups.items()):
        closer = farther = 0
        moves, dists = [], ([], [])
        for k in keys:
            sides = (a.get(k), b.get(k))
            ref = reference_of(sides)
            dist = [None if ref is None else distance(p, ref) for p in sides]
            for side, d in zip(dists, dist):
                if d is not None:
                    side.append(d)
            pair = [value(p) for p in sides]
            if k not in diffs or None in pair:
                continue
            moves.append(abs(pair[1] - pair[0]))
            if None not in dist:
                closer += dist[1] < dist[0]
                farther += dist[1] > dist[0]
        moved = sum(k in diffs for k in keys)
        lines.append(
            f"{' '.join(name)}: {moved} of {len(keys)} moved, {closer} closer,"
            f" {farther} farther; max |b - a| {_max(moves)!r};"
            f" max |value - ref| {_max(dists[0])!r} -> {_max(dists[1])!r}"
        )
    return lines


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    diffs = [k for k in sorted(set(a) | set(b)) if engine(a.get(k)) != engine(b.get(k))]
    for k in diffs:
        sides = (a.get(k), b.get(k))
        print(f"{k}\n  {engine(sides[0])}\n  {engine(sides[1])}")
        ref = reference_of(sides)
        if ref is not None:
            a_dist, b_dist = (distance(p, ref) for p in sides)
            print(f"  |value - ref|: {a_dist!r} {b_dist!r} (ref {ref!r})")
    print(f"{len(diffs)} of {len(set(a) | set(b))} invocations differ")
    for line in summary(a, b, set(diffs)):
        print(line)
    return 1 if diffs else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree to import funsor from")
    parser.add_argument("--out", help="where to write the values (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the invocations whose results differ")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, os.path.abspath(args.src))
    text = json.dumps(sweep(), indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
