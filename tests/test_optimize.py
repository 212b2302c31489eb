"""Contraction planning: singleton pushing, greedy pairing, plan execution.

The oracle for every planned contraction is the unplanned one in plain
numpy: broadcast every table onto the union of their variables, sum, and
reduce the variables one at a time.
"""

import numpy as np
import pytest

from funsor import cli, optimize
from funsor.approx import MomentMatching, MonteCarlo
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.gaussian import GaussianAtom
from funsor.interp import (
    EXACT,
    LAZY,
    Interpretation,
    flatten_product,
    interpret,
    interpretation,
    lift,
    reduce_term,
)
from funsor.markov import SCAN_MODES
from funsor.ops import REDUCE_OPS
from funsor.optimize import (
    OPTIMIZE,
    ContractionPlan,
    context_cost,
    contract,
    contract_pair,
    execute_plan,
    greedy_plan,
    push_singleton_sums,
)
from funsor.tensor import TensorAtom
from funsor.terms import GaussianLeaf, Reduce, TensorLeaf
from test_cli import gmm_doc, hmm_doc, kalman_doc, slds_doc, write_model


def table(rng, entries):
    ctx = TypeContext(entries)
    shape = tuple(tp.size for _, tp in ctx.entries)
    return TensorLeaf(TensorAtom(ctx, rng.normal(size=shape)))


def brute_reduce(op_name, rvars, parts):
    """The unplanned reduction of a table product, in plain numpy.

    Returns the kept variables, sorted, and the array over them.
    """
    names = sorted({n for p in parts for n in p.atom.context.names})
    total = 0.0
    for p in parts:
        own = list(p.atom.context.names)
        order = sorted(own, key=names.index)
        data = np.transpose(p.atom.data, [own.index(n) for n in order])
        shape = [p.atom.context.typeof(n).size if n in own else 1 for n in names]
        total = total + data.reshape(shape)
    fold = np.logaddexp.reduce if op_name == "logaddexp" else np.max
    for v in sorted(rvars, key=names.index, reverse=True):
        total = fold(total, axis=names.index(v))
    return [n for n in names if n not in rvars], total


def assert_table(got, want, rtol):
    """``got``, a table leaf, equals ``brute_reduce``'s ``want``."""
    names, data = want
    own = list(got.atom.context.names)
    assert sorted(own) == names
    np.testing.assert_allclose(
        np.transpose(got.atom.data, [own.index(n) for n in names]), data, rtol=rtol
    )


def random_factor_graph(rng, n_vars=4, n_factors=4, max_bound=3):
    names = [f"v{k}" for k in range(n_vars)]
    bounds = {n: int(rng.integers(2, max_bound + 1)) for n in names}
    parts = []
    for _ in range(n_factors):
        k = int(rng.integers(1, min(3, n_vars) + 1))
        chosen = list(rng.choice(names, size=k, replace=False))
        parts.append(table(rng, [(n, Bounded(bounds[n])) for n in chosen]))
    mentioned = set()
    for p in parts:
        mentioned |= set(p.free_vars.names)
    return parts, sorted(mentioned)


class TestCost:
    def test_discrete_cost_is_element_count(self):
        ctx = TypeContext([("i", Bounded(2)), ("j", Bounded(5))])
        assert context_cost(ctx) == 10.0

    def test_empty_context_costs_one(self):
        assert context_cost(TypeContext()) == 1.0


class TestPushSingletonSums:
    def test_private_variable_is_pushed(self):
        rng = np.random.default_rng(0)
        a = table(rng, [("i", Bounded(2)), ("j", Bounded(3))])
        b = table(rng, [("i", Bounded(2))])
        out, residual = push_singleton_sums([a, b], ["i", "j"])
        assert residual == {"i"}
        assert "j" not in out[0].free_vars
        assert out[1] is b

    def test_shared_variable_stays(self):
        rng = np.random.default_rng(1)
        a = table(rng, [("i", Bounded(2))])
        b = table(rng, [("i", Bounded(2))])
        out, residual = push_singleton_sums([a, b], ["i"])
        assert residual == {"i"}
        assert out[0] is a and out[1] is b

    def test_value_unchanged(self):
        rng = np.random.default_rng(2)
        parts, rvars = random_factor_graph(rng)
        pushed, residual = push_singleton_sums(list(parts), rvars)
        done_names, done = brute_reduce("logaddexp", sorted(residual), pushed)
        want_names, want = brute_reduce("logaddexp", rvars, parts)
        assert done_names == want_names
        np.testing.assert_allclose(done, want, rtol=1e-12)


class TestGreedyPlan:
    def test_plan_shape(self):
        rng = np.random.default_rng(3)
        parts = [
            table(rng, [("i", Bounded(2)), ("j", Bounded(3))]),
            table(rng, [("j", Bounded(3)), ("k", Bounded(2))]),
            table(rng, [("k", Bounded(2))]),
        ]
        plan = greedy_plan(parts, ["j", "k"])
        assert isinstance(plan, ContractionPlan)
        assert len(plan.steps) == len(parts) - 1
        planned = {v for _, _, rvs in plan.steps for v in rvs}
        assert planned | set(plan.final_vars) == {"j", "k"}
        assert plan.estimated_cost > 0.0

    def test_set_input_gives_stable_plan(self):
        rng = np.random.default_rng(4)
        parts, rvars = random_factor_graph(rng, n_vars=5, n_factors=5)
        plans = [greedy_plan(parts, set(rvars)) for _ in range(5)]
        first = plans[0]
        for p in plans[1:]:
            assert p.steps == first.steps
            assert p.final_vars == first.final_vars
            assert p.estimated_cost == first.estimated_cost

    def test_chain_cost_beats_worst_order(self):
        # a chain i-j-k-l: greedy pairing must not build the full joint
        rng = np.random.default_rng(5)
        b = 4
        parts = [
            table(rng, [("i", Bounded(b)), ("j", Bounded(b))]),
            table(rng, [("j", Bounded(b)), ("k", Bounded(b))]),
            table(rng, [("k", Bounded(b)), ("l", Bounded(b))]),
        ]
        plan = greedy_plan(parts, ["j", "k"])
        full_joint = float(b**4)
        assert plan.estimated_cost < 2 * full_joint


class TestExecutePlan:
    def test_matches_brute_force(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            parts, rvars = random_factor_graph(rng)
            pushed, residual = push_singleton_sums(list(parts), rvars)
            plan = greedy_plan(pushed, sorted(residual))
            got = interpret(EXACT, execute_plan(plan, pushed))
            assert_table(got, brute_reduce("logaddexp", rvars, parts), rtol=1e-10)

    def test_max_semiring(self):
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            parts, rvars = random_factor_graph(rng)
            got = interpret(EXACT, contract("max", rvars, parts))
            assert_table(got, brute_reduce("max", rvars, parts), rtol=1e-12)

    def test_empty_reduction_is_identity(self):
        rng = np.random.default_rng(6)
        parts = [table(rng, [("i", Bounded(2))]), table(rng, [("i", Bounded(2))])]
        got = interpret(EXACT, contract("logaddexp", [], parts))
        assert_table(got, brute_reduce("logaddexp", [], parts), rtol=1e-7)
        assert set(got.atom.context.names) == {"i"}

    def test_two_factors_sharing_every_variable_contract_in_one_step(self):
        """Such a pair has one plan: fuse, then reduce reals before labels."""
        rng = np.random.default_rng(8)
        c = TypeContext([("c", Bounded(3))])
        x = TypeContext([("x", RealArray(()))])
        mixture = [
            GaussianLeaf(
                GaussianAtom(
                    c, x, rng.normal(size=(3, 1)), rng.uniform(1.0, 2.0, size=(3, 1, 1))
                )
            )
            for _ in range(2)
        ]
        ij = [("i", Bounded(3)), ("j", Bounded(4))]
        cases = [
            (["c", "x"], ["x", "c"], mixture),
            (["i", "j"], ["i", "j"], [table(rng, ij), table(rng, ij)]),
        ]
        op = REDUCE_OPS["logaddexp"]
        with interpretation(EXACT):
            for rvars, reals_first, (a, b) in cases:
                got = contract("logaddexp", rvars, [a, b])
                want = contract_pair(op, [a], [b], reals_first)
                assert got.atom.context == want.atom.context == TypeContext()
                assert np.array_equal(got.atom.data, want.atom.data)


class TestOptimizeInterpretation:
    def test_agrees_with_exact_on_random_graphs(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            parts, rvars = random_factor_graph(rng, n_vars=5, n_factors=5)
            with interpretation(LAZY):
                node = parts[0]
                for p in parts[1:]:
                    node = lift("add", node, p)
                for v in rvars:
                    node = reduce_term("logaddexp", v, node)
            got = interpret(OPTIMIZE, node)
            want = interpret(EXACT, node)
            np.testing.assert_allclose(got.atom.data, want.atom.data, rtol=1e-10)

    def test_mixture_integrates_the_real_variable_before_the_label(self):
        """Real variables are not pushed into a lone factor, so the joint
        plan must still integrate ``x`` before it sums the label ``c``.
        """
        rng = np.random.default_rng(10)
        c = TypeContext([("c", Bounded(3))])
        x = TypeContext([("x", RealArray(()))])
        info, prec = rng.normal(size=(3, 1)), rng.uniform(1.0, 2.0, size=(3, 1, 1))
        weight = TensorLeaf(TensorAtom(c, rng.normal(size=3)))
        gauss = GaussianLeaf(GaussianAtom(c, x, info, prec))
        with interpretation(LAZY):
            model = lift("add", weight, gauss)
            c_of_x = reduce_term("logaddexp", "c", reduce_term("logaddexp", "x", model))
            x_of_c = reduce_term("logaddexp", "x", reduce_term("logaddexp", "c", model))
        want = interpret(EXACT, c_of_x)
        for node in (c_of_x, x_of_c):
            got = interpret(OPTIMIZE, node)
            np.testing.assert_allclose(got.atom.data, want.atom.data, rtol=1e-12)

    def test_nested_sums_plan_jointly(self):
        rng = np.random.default_rng(7)
        parts = [
            table(rng, [("i", Bounded(3)), ("j", Bounded(3))]),
            table(rng, [("j", Bounded(3)), ("k", Bounded(3))]),
        ]
        with interpretation(LAZY):
            node = lift("add", parts[0], parts[1])
            node = reduce_term("logaddexp", "i", node)
            node = reduce_term("logaddexp", "j", node)
            node = reduce_term("logaddexp", "k", node)
        got = interpret(OPTIMIZE, node)
        want = interpret(EXACT, node)
        np.testing.assert_allclose(got.atom.data, want.atom.data, rtol=1e-12)
        assert got.atom.context.names == ()


class TestPlansRunUnderTheCaller:
    def test_montecarlo_samples_a_planned_step(self):
        """Under Monte Carlo a planned step that sums a label out of a
        quadratic factor batched over it draws once, as the unplanned
        reduction of the fused product does; a closed-form step draws
        nothing.
        """
        rng = np.random.default_rng(8)
        c = TypeContext([("c", Bounded(3))])
        x = TypeContext([("x", RealArray(()))])
        weight = TensorLeaf(TensorAtom(c, rng.normal(size=3)))
        mixed = GaussianLeaf(GaussianAtom(c, x, rng.normal(size=(3, 1)), np.ones((3, 1, 1))))
        parts = [
            GaussianLeaf(GaussianAtom(TypeContext(), x, rng.normal(size=1), [[1.0 + k]]))
            for k in range(3)
        ]
        planned = MonteCarlo(0)
        with interpretation(planned):
            contract("logaddexp", ["c"], [weight, mixed, parts[0]])
        unplanned = MonteCarlo(0)
        with interpretation(unplanned):
            reduce_term("logaddexp", "c", lift("add", lift("add", weight, mixed), parts[0]))
        assert planned.draws == unplanned.draws == 1
        closed = MonteCarlo(0)
        with interpretation(closed):
            contract("logaddexp", ["x"], parts)
        assert closed.draws == 0


class TestExactContraction:
    def test_lazy_reduction_skips_the_union_table(self):
        """Exact contracts a lazily built ``Reduce(j, A(i,j) + B(j,k))``
        without building the (K, K, K) union table: 6.75 MiB at K=96, where
        each operand and the result are 72 KiB.
        """
        import tracemalloc

        rng = np.random.default_rng(9)
        K = 96
        a = table(rng, [("i", Bounded(K)), ("j", Bounded(K))])
        b = table(rng, [("j", Bounded(K)), ("k", Bounded(K))])
        with interpretation(LAZY):
            node = reduce_term("logaddexp", "j", lift("add", a, b))
        tracemalloc.start()
        try:
            got = interpret(EXACT, node)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = np.logaddexp.reduce(
            a.atom.data[:, :, None] + b.atom.data[None, :, :], axis=1
        )
        assert got.atom.context.names == ("i", "k")
        np.testing.assert_allclose(got.atom.data, want, rtol=1e-12)
        assert peak < 4 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"

    def test_eager_reduction_skips_the_union_table(self):
        """Exact leaves an eagerly built sum of tables that no one of them
        spans unfused, and its reduction contracts the tables: at K=96 the
        (K, K, K) union table is never built.  Sums that nest still fuse.
        """
        import tracemalloc

        rng = np.random.default_rng(9)
        K = 96
        a = table(rng, [("i", Bounded(K)), ("j", Bounded(K))])
        b = table(rng, [("j", Bounded(K)), ("k", Bounded(K))])
        want = brute_reduce("logaddexp", ["j"], [a, b])
        forms = (
            lambda: reduce_term("logaddexp", "j", lift("add", a, b)),
            lambda: (a + b).reduce("logaddexp", "j"),
        )
        for form in forms:
            tracemalloc.start()
            try:
                with interpretation(EXACT):
                    got = form()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert isinstance(got, TensorLeaf)
            assert_table(got, want, rtol=1e-12)
            assert peak < 4 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"

        i, j = [("i", Bounded(3))], [("j", Bounded(4))]
        nested = [
            (table(rng, i), table(rng, i)),
            (table(rng, i + j), table(rng, j)),
            (table(rng, j), table(rng, i + j)),
        ]
        with interpretation(EXACT):
            for x, y in nested:
                got = x + y
                assert isinstance(got, TensorLeaf)
                assert_table(got, brute_reduce("logaddexp", [], [x, y]), rtol=1e-12)

    SPREAD = {
        # Tables over these names; j is summed.  Kept: (i, k) + (k, l).
        "chain": ((("i", "j"), ("j", "k"), ("k", "l")), [("i", "k"), ("k", "l")]),
        # Kept: (i) + (k, l).
        "apart": ((("i", "j"), ("k", "l")), [("i",), ("k", "l")]),
    }

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    @pytest.mark.parametrize("case", sorted(SPREAD))
    def test_spread_reduction_contracts_only_the_tables_over_the_variable(
        self, case, lazy
    ):
        """``sum_j`` over tables that no one of them spans contracts the
        tables that mention ``j`` in one step and keeps the others apart:
        at K=96 the result is two tables, and no (i, k, l) table is built
        (fusing every table peaks at 6.9 and 6.8 MiB).
        """
        import tracemalloc

        rng = np.random.default_rng(12)
        K = 96
        names, kept = self.SPREAD[case]
        parts = [table(rng, [(n, Bounded(K)) for n in ns]) for ns in names]

        def build():
            node = parts[0]
            for p in parts[1:]:
                node = lift("add", node, p)
            return reduce_term("logaddexp", "j", node)

        if lazy:
            with interpretation(LAZY):
                node = build()
        tracemalloc.start()
        try:
            if lazy:
                got = interpret(EXACT, node)
            else:
                with interpretation(EXACT):
                    got = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = flatten_product(got)
        assert [p.atom.context.names for p in out] == kept
        over_j = [p for p in parts if "j" in p.free_vars]
        assert_table(out[0], brute_reduce("logaddexp", ["j"], over_j), rtol=1e-12)
        assert out[1] == parts[-1]
        assert peak < 2**20, f"peak traced allocation {peak / 2**20:.2f} MiB"


class TestOnlyOptimizePlans:
    """Exact and the interpretations that fall back to it reduce every
    product in steps of their own; only Optimize's whole-term rule calls
    the planner."""

    PLANNER = ("contract", "greedy_plan", "execute_plan")
    INTERPS = {
        "exact": lambda: EXACT,
        "momentmatching": MomentMatching,
        "montecarlo": lambda: MonteCarlo(0),
        "plain": lambda: Interpretation("plain", fallback=EXACT),
    }

    @pytest.fixture
    def planned(self, monkeypatch):
        calls = []
        for name in self.PLANNER:
            real = getattr(optimize, name)

            def spy(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(optimize, name, spy)
        return calls

    @staticmethod
    def reductions(rng, K=4):
        names = [
            (("i", "j"), ("j", "k")),
            (("i", "j"), ("j", "k"), ("k", "l")),
            (("i", "j"), ("k", "l")),
        ]
        out = []
        for ns in names:
            parts = [table(rng, [(n, Bounded(K)) for n in t]) for t in ns]
            with interpretation(LAZY):
                node = parts[0]
                for p in parts[1:]:
                    node = lift("add", node, p)
                out.append(reduce_term("logaddexp", "j", node))
        return out

    @pytest.mark.parametrize("name", sorted(INTERPS))
    def test_spread_reductions_make_no_plan(self, name, planned):
        for node in self.reductions(np.random.default_rng(13)):
            interp = self.INTERPS[name]()
            interpret(interp, node)
            with interpretation(interp):
                reduce_term(node.op, node.var, node.body)
        assert planned == []

    @pytest.mark.parametrize("scan", SCAN_MODES)
    @pytest.mark.parametrize("name", sorted(INTERPS))
    def test_model_files_make_no_plan(self, name, scan, planned, tmp_path, capsys, monkeypatch):
        """Every family's model file, run as ``funsor run`` runs it; the
        plain interpretation stands in for Exact."""
        if name == "plain":
            monkeypatch.setattr(cli, "EXACT", self.INTERPS["plain"]())
        rng = np.random.default_rng(14)
        for family, doc in (
            ("hmm", hmm_doc(rng)),
            ("kalman", kalman_doc(rng, bias=True)),
            ("slds", slds_doc(rng)),
            ("gmm", gmm_doc(rng)),
        ):
            if family in ("slds", "gmm") and name in ("exact", "plain"):
                expect = 1  # a mixture Exact leaves lazy
            elif family == "slds" and name == "momentmatching" and scan == "parallel":
                expect = 1  # the doubling scan refuses a filtering window
            else:
                expect = 0
            path = write_model(tmp_path, f"{family}.json", doc)
            interp = "exact" if name == "plain" else name
            argv = ["run", path, "--interp", interp, "--scan", scan]
            assert cli.main(argv) == expect
        capsys.readouterr()
        assert planned == []

    def test_optimize_plans_its_joint_reduction(self, planned):
        node = self.reductions(np.random.default_rng(13))[0]
        interpret(OPTIMIZE, node)
        assert planned[0] == "contract"
        assert {"greedy_plan", "execute_plan"} <= set(planned)
