"""Layer spans for a traced run, recorded from outside the package.

``Tracer.install`` rebinds each traced function in every ``funsor.*``
module that holds it (``from .tensor import tensor_apply`` copies the
binding, so patching the defining module alone would miss callers),
wraps the atom constructors, every rule handler of the Lazy, Exact,
Optimize and MomentMatching interpretations, and ``numpy.linalg.cholesky``.
Spans are kept in memory as ``[name, start, end, parent, eval, outcome]``
and only recorded while an evaluation is active; ``restore`` puts every
original back.
"""
import functools
import json
import sys
import time
from collections import defaultdict
from statistics import median

import numpy as np

TENSOR_FNS = (
    "logsumexp", "tensor_apply", "tensor_reduce", "tensor_index",
    "tensor_slice", "tensor_cat", "align_atoms",
)
GAUSSIAN_FNS = (
    "gaussian_fuse", "gaussian_marginalize", "gaussian_substitute",
    "gaussian_log_normalizer", "gaussian_index_batch", "gaussian_cat",
    "gaussian_expand_batch", "gaussian_affine_substitute", "gaussian_rename",
)
MODEL_BUILDERS = ("build_hmm", "build_kalman", "build_slds_marginal", "build_gmm")


def _array_stats(out):
    """(bytes, largest element count) of the arrays a tensor kernel returned."""
    if isinstance(out, tuple):
        arrays = out[1]
    elif isinstance(out, np.ndarray):
        arrays = [out]
    else:
        arrays = [out.data]
    return sum(a.nbytes for a in arrays), max((a.size for a in arrays), default=0)


def _fired(out):
    return out is not None


def _plan_cost(plan):
    return plan.estimated_cost


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.eval_id = None
        self.counts = defaultdict(lambda: defaultdict(int))
        self.rule_names = []
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            eval_id = self.eval_id
            if eval_id is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, eval_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    rec[5] = post(out)
                return out
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, module, attr, name, post=None):
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "funsor" or mod_name.startswith("funsor."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, traced)

    def install(self):
        import funsor.approx as approx
        import funsor.gaussian as gaussian
        import funsor.interp as interp
        import funsor.models as models
        import funsor.optimize as optimize
        import funsor.tensor as tensor

        for fn in TENSOR_FNS:
            self._rebind(tensor, fn, f"tensor.{fn}", _array_stats)
        for fn in GAUSSIAN_FNS:
            self._rebind(gaussian, fn, f"gaussian.{fn}")
        for fn in MODEL_BUILDERS:
            self._rebind(models, fn, "models.build")
        self._rebind(interp, "reinterpret", "interp.interpret")
        self._rebind(interp, "affine_decompose", "interp.affine_decompose")
        self._rebind(interp, "normal_form_from_parts", "interp.normal_form_from_parts")
        self._rebind(optimize, "contract", "optimize.contract")
        self._rebind(optimize, "greedy_plan", "optimize.greedy_plan", _plan_cost)
        self._rebind(optimize, "execute_plan", "optimize.execute_plan")
        self._rebind(approx, "moment_match", "approx.moment_match")
        self._set(tensor.TensorAtom, "__init__",
                  self.wrap("tensor.atoms_built", tensor.TensorAtom.__init__))
        self._set(gaussian.GaussianAtom, "__init__",
                  self.wrap("gaussian.atoms_built", gaussian.GaussianAtom.__init__))

        self.rule_names = []
        for table in (interp.LAZY, interp.EXACT, optimize.OPTIMIZE):
            for rule in table.rules + table.whole_rules:
                self.rule_names.append(rule.name)
                self._set(rule, "handler",
                          self.wrap(f"interp.rule.{rule.name}", rule.handler, _fired))
        # MomentMatching builds its rule from a bound method in __init__, so
        # the class attribute must be wrapped before the CLI constructs one.
        mm_rule = approx.MomentMatching().rules[0].name
        self.rule_names.append(mm_rule)
        self._set(approx.MomentMatching, "_h_reduce",
                  self.wrap(f"interp.rule.{mm_rule}", approx.MomentMatching._h_reduce, _fired))

        orig_chol = np.linalg.cholesky

        @functools.wraps(orig_chol)
        def cholesky(*args, **kwargs):
            if self.eval_id is None:
                return orig_chol(*args, **kwargs)
            counts = self.counts[self.eval_id]
            counts["gaussian.cholesky.calls"] += 1
            try:
                return orig_chol(*args, **kwargs)
            except np.linalg.LinAlgError:
                counts["gaussian.cholesky.failed"] += 1
                raise

        self._set(np.linalg, "cholesky", cholesky)

    def restore(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- recording --------------------------------------------------------

    def run(self, eval_id, fn, *args):
        """Call ``fn`` as evaluation ``eval_id`` under a root ``cli`` span."""
        self.eval_id = eval_id
        try:
            return self.wrap("cli", fn)(*args)
        finally:
            self.eval_id = None

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        cols = {
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "eval": [s[4] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": cols}, fh)

    # -- per-layer metrics ------------------------------------------------

    def per_eval(self):
        """Per-evaluation totals: ``{eval: {key: value}}``.

        ``<span>.calls`` and ``<span>.self_ms`` (duration less the wrapped
        child spans), ``<span>.incl_ms``, rule fires, returned tensor bytes
        and largest element count, and plan cost; plus the raw counters.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, _, ev, outcome) in enumerate(self.spans):
            tot = out[ev]
            tot[f"{name}.calls"] += 1
            tot[f"{name}.self_ms"] += (end - start - child[k]) * 1e3
            tot[f"{name}.incl_ms"] += (end - start) * 1e3
            if name.startswith("interp.rule."):
                tot["interp.rules.tried"] += 1
                if outcome:
                    tot[f"{name}.fired"] += 1
                    tot["interp.rules.fired"] += 1
            elif name.startswith("tensor.") and outcome is not None:
                tot["tensor.out_bytes"] += outcome[0]
                tot["tensor.largest_elems"] = max(tot["tensor.largest_elems"], outcome[1])
            elif name == "optimize.greedy_plan" and outcome is not None:
                tot["optimize.plan_cost"] += outcome
        for ev, counts in self.counts.items():
            for key, value in counts.items():
                out[ev][key] += value
        return out


def layer_metrics(per_eval, levels, rule_names):
    """Median over evaluations of every per-layer metric the tracer measures.

    ``levels`` lists the scan depth each evaluation reported (0 without a
    doubling scan); ``rule_names`` are the rules the tracer wrapped.
    """
    evals = sorted(per_eval)

    def med(fn):
        return float(median(fn(per_eval[e]) for e in evals))

    def key(k):
        return med(lambda t: t.get(k, 0.0))

    def ratio(num, den):
        return med(lambda t: t.get(num, 0.0) / t[den] if t.get(den) else 0.0)

    m = {}
    for fn in TENSOR_FNS:
        m[f"tensor.{fn}.calls"] = key(f"tensor.{fn}.calls")
        m[f"tensor.{fn}.self_ms"] = key(f"tensor.{fn}.self_ms")
    m["tensor.out_bytes"] = key("tensor.out_bytes")
    m["tensor.largest_elems"] = key("tensor.largest_elems")
    m["tensor.atoms_built"] = key("tensor.atoms_built.calls")
    m["interp.interpret.calls"] = key("interp.interpret.calls")
    for name in ("interp.affine_decompose", "interp.normal_form_from_parts",
                 "gaussian.atoms_built", "approx.moment_match",
                 *(f"gaussian.{fn}" for fn in GAUSSIAN_FNS)):
        m[f"{name}.calls"] = key(f"{name}.calls")
        m[f"{name}.self_ms"] = key(f"{name}.self_ms")
    m["gaussian.cholesky.calls"] = key("gaussian.cholesky.calls")
    m["gaussian.cholesky.failed"] = key("gaussian.cholesky.failed")
    m["gaussian.cholesky.retry_frac"] = ratio("gaussian.cholesky.failed",
                                              "gaussian.cholesky.calls")
    for rule in rule_names:
        m[f"interp.rule.{rule}.fired"] = key(f"interp.rule.{rule}.fired")
        m[f"interp.rule.{rule}.self_ms"] = key(f"interp.rule.{rule}.self_ms")
    m["interp.rules.tried"] = key("interp.rules.tried")
    m["interp.rules.fired"] = key("interp.rules.fired")
    m["interp.rules.fired_frac"] = ratio("interp.rules.fired", "interp.rules.tried")
    m["markov.levels"] = float(median(levels))
    m["markov.scan_ms"] = key("interp.rule.chain-product.incl_ms")
    m["optimize.contract.calls"] = key("optimize.contract.calls")
    m["optimize.greedy_plan.self_ms"] = key("optimize.greedy_plan.self_ms")
    m["optimize.execute_plan.self_ms"] = key("optimize.execute_plan.self_ms")
    m["optimize.plan_cost"] = key("optimize.plan_cost")
    m["models.build_ms"] = key("models.build.incl_ms")
    m["cli.self_ms"] = key("cli.self_ms")
    return m
