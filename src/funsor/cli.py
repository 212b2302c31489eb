"""Command line front end: evaluate model files.

``funsor run model.json`` prints one strict JSON object with the log value.
Model files carry a ``"model"`` discriminator naming the family;
probabilities are written in linear space and converted to log
internally, matrices as nested row-major lists.  The model builders
check every array's shape, so a malformed file, like an unreadable one,
prints ``{"error", "detail"}`` and exits 1.  Every model is one lazy term
and one ``interpret`` call under the requested interpretation and scan
(by default moment matching for slds and gmm, else exact); ``montecarlo``
draws its ``--samples`` particles in it.  A mixture left lazy is ``NoClosedForm``.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .approx import MomentMatching, MonteCarlo
from .errors import BoundsError, FunsorError, FunsorTypeError, NoClosedForm
from .interp import EXACT, flatten_product, interpret
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
from .terms import Reduce, TensorLeaf

INTERPRETATIONS = ("exact", "optimize", "momentmatching", "montecarlo")
SEMIRINGS = ("sumproduct", "maxproduct")
MODEL_FAMILIES = ("hmm", "kalman", "slds", "gmm")


@dataclass
class RunConfig:
    """Validated options for a single ``funsor run`` invocation."""

    model_path: str
    interpretation: str | None = None
    semiring: str = "sumproduct"
    scan: str = "sequential"
    seed: int = 0
    samples: int = 100

    def __post_init__(self):
        if self.interpretation not in INTERPRETATIONS + (None,):
            raise FunsorTypeError(f"unknown interpretation {self.interpretation!r}")
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


def _field(doc: dict, key: str, required: bool = False):
    value = _require(doc, key) if required else doc.get(key)
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


def _arrays(doc: dict, *keys: str) -> list:
    return [_field(doc, key, required=True) for key in keys]


def _load_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FunsorTypeError("model file must hold a JSON object")
    return doc


def _evaluate(term, config: RunConfig, window: int):
    """Interpret a closed model term, with moment matching's ``window``;
    returns (log value, levels or None); a lazy result is ``NoClosedForm``."""
    stats = {}
    if config.interpretation == "montecarlo":
        interp = MonteCarlo(config.seed, config.samples)
    elif config.interpretation == "momentmatching":
        interp = MomentMatching(window)
    else:
        interp = OPTIMIZE if config.interpretation == "optimize" else EXACT
    with scan_mode(config.scan, stats=stats):
        out = interpret(interp, term)
    if not isinstance(out, TensorLeaf):
        lazy = [f"{r.op.name} over {r.var!r}" for r in flatten_product(out)
                if isinstance(r, Reduce)]
        raise NoClosedForm(f"{interp.name} leaves {' and '.join(lazy) or type(out).__name__} lazy")
    # One cell, or the particles Monte Carlo drew: their log-mean-exp.
    cells = out.atom.data.reshape(-1)
    value = float(logsumexp(cells, 0) - np.log(cells.size))
    return value, stats.get("levels")


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

    default = "momentmatching" if family in ("slds", "gmm") else "exact"
    config, window = replace(config, interpretation=config.interpretation or default), 1
    start = time.perf_counter()
    if family == "hmm":
        spec = HmmSpec(*_arrays(doc, "transition", "emission_loglik"), _field(doc, "prior"))
        elim = "max" if config.semiring == "maxproduct" else "logaddexp"
        term = build_hmm(spec, elim=elim)
    elif family == "kalman":
        spec = KalmanSpec(
            *_arrays(doc, "F", "Q", "H", "R", "observations"),
            *(_field(doc, k) for k in ("init_mean", "init_cov", "bias_cov")),
        )
        term = build_kalman(spec)
    elif family == "slds":
        spec = SldsSpec(
            *_arrays(doc, "transition", "F", "Q", "H", "R"),
            *(_field(doc, k) for k in ("init_mean", "init_cov")),
            window=doc.get("window", 1),
        )
        term, window = build_slds(spec, *_arrays(doc, "observations")), spec.window
    else:
        keys = ("loadings", "offsets", "noises", "prior_mean", "prior_cov", "data")
        term = build_gmm(GmmSpec.from_moments(*_arrays(doc, *keys)))
    value, levels = _evaluate(term, config, window)
    wall_ms = (time.perf_counter() - start) * 1e3

    payload = {
        "model": family,
        "interpretation": config.interpretation,
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
    run.add_argument("--interp", choices=INTERPRETATIONS,
                     help="default: momentmatching for slds and gmm, else exact")
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
