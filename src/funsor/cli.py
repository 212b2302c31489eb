"""Command line front end: evaluate model files.

``funsor run model.json`` prints one strict JSON object with the log value.
Model files carry a ``"model"`` discriminator naming the family;
probabilities are written in linear space and converted to log
internally, matrices as nested row-major lists.  The model builders
check every array's shape, so a malformed file, like an unreadable one,
prints ``{"error", "detail"}`` and exits 1.  Every chain is one ``interpret``
call (a switching model's under ``MomentMatching(window)``, sequentially);
``montecarlo`` draws its ``--samples`` particles in it.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .approx import MomentMatching, MonteCarlo
from .errors import BoundsError, FunsorError, FunsorTypeError
from .interp import EXACT, interpret
from .markov import SCAN_MODES, scan_mode
from .models import (
    GmmSpec,
    HmmSpec,
    KalmanSpec,
    SldsSpec,
    build_gmm,
    build_hmm,
    build_kalman,
    build_slds,
)
from .optimize import OPTIMIZE
from .tensor import logsumexp

INTERPRETATIONS = ("exact", "optimize", "momentmatching", "montecarlo")
SEMIRINGS = ("sumproduct", "maxproduct")
MODEL_FAMILIES = ("hmm", "kalman", "slds", "gmm")


@dataclass
class RunConfig:
    """Validated options for a single ``funsor run`` invocation."""

    model_path: str
    interpretation: str = "exact"
    semiring: str = "sumproduct"
    scan: str = "sequential"
    seed: int = 0
    samples: int = 100

    def __post_init__(self):
        if self.interpretation not in INTERPRETATIONS:
            raise FunsorTypeError(
                f"unknown interpretation {self.interpretation!r}"
            )
        if self.semiring not in SEMIRINGS:
            raise FunsorTypeError(f"unknown semiring {self.semiring!r}")
        if self.scan not in SCAN_MODES:
            raise FunsorTypeError(f"unknown scan mode {self.scan!r}")
        if self.interpretation == "montecarlo" and self.samples < 1:
            raise BoundsError(
                f"montecarlo needs at least one sample, got {self.samples}"
            )
        if self.interpretation == "montecarlo" and self.semiring != "sumproduct":
            raise FunsorTypeError(
                "montecarlo estimates sums; it cannot run under maxproduct"
            )


def _require(doc: dict, key: str):
    if key not in doc:
        raise FunsorTypeError(f"model file is missing required key {key!r}")
    return doc[key]


def _field(doc: dict, key: str, default=None):
    value = doc.get(key, default)
    if value is None:
        return None
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FunsorTypeError(f"key {key!r} is not numeric array data: {exc}")
    # JSON readers accept NaN and Infinity; only a log likelihood may be -inf.
    allowed = np.isneginf(arr) if key == "emission_loglik" else False
    if not np.all(np.isfinite(arr) | allowed):
        raise FunsorTypeError(f"key {key!r} holds a non-finite number")
    return arr


def _array(doc: dict, key: str) -> np.ndarray:
    _require(doc, key)
    return _field(doc, key)


def _arrays(doc: dict, *keys: str) -> list:
    return [_array(doc, key) for key in keys]


def _load_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FunsorTypeError("model file must hold a JSON object")
    return doc


def _evaluate_chain(term, config: RunConfig, window: int = 1):
    """Interpret a closed chain term, with moment matching's ``window``;
    returns (log value, levels or None)."""
    stats = {} if config.scan == "parallel" else None
    if config.interpretation == "montecarlo":
        interp = MonteCarlo(config.seed, config.samples)
    else:
        interp = {
            "exact": EXACT,
            "optimize": OPTIMIZE,
            "momentmatching": MomentMatching(window),
        }[config.interpretation]
    with scan_mode(config.scan, stats=stats):
        cells = interpret(interp, term).atom.data.reshape(-1)
    # One cell, or the particles Monte Carlo drew: their log-mean-exp.
    value = float(logsumexp(cells, 0) - np.log(cells.size))
    levels = stats.get("levels") if stats is not None else None
    return value, levels


def cmd_run(config: RunConfig) -> int:
    doc = _load_doc(config.model_path)
    family = _require(doc, "model")
    if family not in MODEL_FAMILIES:
        raise FunsorTypeError(
            f"unknown model family {family!r}; expected one of {MODEL_FAMILIES}"
        )
    if config.semiring == "maxproduct" and family != "hmm":
        raise FunsorTypeError(
            "maxproduct applies to discrete-only models; "
            f"{family!r} has real-valued state"
        )

    forced = family in ("slds", "gmm")
    if forced and config.interpretation != "momentmatching":
        print(f"note: {family} always evaluates under momentmatching", file=sys.stderr)
    reported = "momentmatching" if forced else config.interpretation
    levels = None
    start = time.perf_counter()
    if family == "hmm":
        spec = HmmSpec(*_arrays(doc, "transition", "emission_loglik"), _field(doc, "prior"))
        elim = "max" if config.semiring == "maxproduct" else "logaddexp"
        value, levels = _evaluate_chain(build_hmm(spec, elim=elim), config)
    elif family == "kalman":
        spec = KalmanSpec(
            *_arrays(doc, "F", "Q", "H", "R", "observations"),
            *(_field(doc, k) for k in ("init_mean", "init_cov", "bias_cov")),
        )
        value, levels = _evaluate_chain(build_kalman(spec), config)
    elif family == "slds":
        spec = SldsSpec(
            *_arrays(doc, "transition", "F", "Q", "H", "R"),
            *(_field(doc, k) for k in ("init_mean", "init_cov")),
            window=doc.get("window", 1),
        )
        # Moment matching in the sequential scan, whatever the flags say.
        fixed = replace(config, interpretation="momentmatching", scan="sequential")
        term = build_slds(spec, _array(doc, "observations"))
        value, _ = _evaluate_chain(term, fixed, spec.window)
    else:
        keys = ("loadings", "offsets", "noises", "prior_mean", "prior_cov", "data")
        value = float(build_gmm(GmmSpec.from_moments(*_arrays(doc, *keys))).atom.data)
    wall_ms = (time.perf_counter() - start) * 1e3

    payload = {
        "model": family,
        "interpretation": reported,
        "log_value": value if np.isfinite(value) else str(value),
        "wall_ms": wall_ms,
    }
    if levels is not None:
        payload["levels"] = levels
    print(json.dumps(payload, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funsor",
        description="Evaluate probabilistic model files symbolically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate one model file")
    run.add_argument("model_path", help="path to a JSON model file")
    run.add_argument("--interp", choices=INTERPRETATIONS, default="exact")
    run.add_argument("--semiring", choices=SEMIRINGS, default="sumproduct")
    run.add_argument("--scan", choices=SCAN_MODES, default="sequential")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--samples", type=int, default=100,
        help="particles drawn in one evaluation (montecarlo only)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            model_path=args.model_path,
            interpretation=args.interp,
            semiring=args.semiring,
            scan=args.scan,
            seed=args.seed,
            samples=args.samples,
        )
        return cmd_run(config)
    except FunsorError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": "ParseError", "detail": str(exc)}))
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "detail": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
