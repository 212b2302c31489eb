"""Term construction, typing judgements, and structural substitution."""

import numpy as np
import pytest

from funsor.delta import DeltaAtom
from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import FunsorTypeError, InvalidMatching
from funsor.gaussian import GaussianAtom
from funsor.interp import EXACT, LAZY, _rebuild, interpret, interpretation, subst_term
from funsor.ops import ADD, LOGADDEXP_REDUCE, REDUCE_OPS
from funsor.tensor import TensorAtom, scalar_tensor
from funsor.terms import (
    Apply,
    Cat,
    DeltaLeaf,
    GaussianLeaf,
    MarkovProd,
    Reduce,
    Slice,
    Subst,
    TensorLeaf,
    Term,
    Variable,
    infer_type,
    pretty,
)


def table(entries, data):
    return TensorLeaf(TensorAtom(TypeContext(entries), np.asarray(data, float)))


def chain_body(T=4, K=2, seed=0):
    rng = np.random.default_rng(seed)
    ctx = TypeContext([("t", Bounded(T)), ("prev", Bounded(K)), ("curr", Bounded(K))])
    return TensorLeaf(TensorAtom(ctx, rng.normal(size=(T, K, K))))


class TestLeavesAndVariables:
    def test_leaf_types_are_checked(self):
        with pytest.raises(FunsorTypeError):
            TensorLeaf(np.zeros(3))
        with pytest.raises(FunsorTypeError):
            GaussianLeaf("not an atom")
        with pytest.raises(FunsorTypeError):
            DeltaLeaf(42)

    def test_variable_judgement(self):
        v = Variable("x", Bounded(3))
        assert v.free_vars.names == ("x",)
        ctx, out = infer_type(v)
        assert ctx.typeof("x") == Bounded(3)
        assert out == Bounded(3)

    def test_tensor_leaf_judgement(self):
        t = table([("i", Bounded(2))], [1.0, 2.0])
        ctx, out = infer_type(t)
        assert ctx.names == ("i",)
        assert out == RealArray(())


class TestApply:
    def test_apply_unions_contexts(self):
        a = table([("i", Bounded(2))], [0.0, 1.0])
        b = table([("j", Bounded(3))], [0.0, 1.0, 2.0])
        node = Apply(ADD, (a, b))
        assert set(node.free_vars.names) == {"i", "j"}

    def test_apply_rejects_type_conflicts(self):
        a = table([("i", Bounded(2))], [0.0, 1.0])
        b = table([("i", Bounded(3))], [0.0, 1.0, 2.0])
        with pytest.raises(TypeError):
            Apply(ADD, (a, b))


class TestReduce:
    def test_reduce_removes_variable(self):
        t = table([("i", Bounded(2)), ("j", Bounded(3))], np.zeros((2, 3)))
        node = Reduce(LOGADDEXP_REDUCE, "i", t)
        assert node.free_vars.names == ("j",)

    def test_reduce_rejects_absent_variable(self):
        t = table([("i", Bounded(2))], [0.0, 1.0])
        with pytest.raises(TypeError):
            Reduce(LOGADDEXP_REDUCE, "k", t)

    def test_add_monoid_rejects_real_variable(self):
        g = GaussianAtom(
            TypeContext(),
            TypeContext([("x", RealArray(()))]),
            np.zeros(1),
            np.eye(1),
        )
        with pytest.raises(FunsorTypeError):
            Reduce(REDUCE_OPS["add"], "x", GaussianLeaf(g))


class TestMarkovProd:
    def test_free_vars_keep_boundary_pair(self):
        node = MarkovProd("t", (("prev", "curr"),), chain_body())
        assert set(node.free_vars.names) == {"prev", "curr"}

    def test_timevar_must_be_free(self):
        with pytest.raises(FunsorTypeError):
            MarkovProd("s", (("prev", "curr"),), chain_body())

    def test_matching_names_must_be_distinct(self):
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("prev", "prev"),), chain_body())

    def test_matching_must_not_touch_timevar(self):
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("t", "curr"),), chain_body())

    def test_matched_pair_types_must_agree(self):
        rng = np.random.default_rng(1)
        ctx = TypeContext(
            [("t", Bounded(3)), ("prev", Bounded(2)), ("curr", Bounded(4))]
        )
        body = TensorLeaf(TensorAtom(ctx, rng.normal(size=(3, 2, 4))))
        with pytest.raises(InvalidMatching):
            MarkovProd("t", (("prev", "curr"),), body)


class TestSubstitution:
    def test_substitution_is_simultaneous(self):
        # swapping two variables must not chain through each other
        x, y = Variable("x", RealArray(())), Variable("y", RealArray(()))
        node = Apply(ADD, (x, Apply(ADD, (y, y))))
        with interpretation(LAZY):
            swapped = subst_term(node, {"x": y, "y": x})
        assert set(swapped.free_vars.names) == {"x", "y"}
        # positionally: x + (y + y) becomes y + (x + x)
        assert pretty(swapped) == pretty(Apply(ADD, (y, Apply(ADD, (x, x)))))

    def test_values_refer_to_outer_scope(self):
        t = table([("i", Bounded(2)), ("j", Bounded(2))], np.arange(4.0).reshape(2, 2))
        inner = Reduce(LOGADDEXP_REDUCE, "j", t)
        # substituting the bound name is a no-op: it is not free
        with interpretation(LAZY):
            same = subst_term(inner, {"j": Variable("k", Bounded(2))})
        assert same is inner

    def test_capture_is_avoided(self):
        t = table([("i", Bounded(2)), ("j", Bounded(2))], np.arange(4.0).reshape(2, 2))
        inner = Reduce(LOGADDEXP_REDUCE, "j", t)
        # the incoming value mentions j, so the binder must step aside
        with interpretation(LAZY):
            out = subst_term(inner, {"i": Variable("j", Bounded(2))})
        assert out.free_vars.names == ("j",)
        assert isinstance(out, Reduce) and out.var != "j"

    def test_binding_validation(self):
        base = table([("i", Bounded(2))], [0.0, 1.0])
        with pytest.raises(TypeError):
            Subst(base, {"i": Variable("x", Bounded(3))})


class TestAlphaRename:
    """A binder a substituted value would capture is renamed within the
    same substitution; the value's free name stays free outside."""

    def test_reduce_binder_rename(self):
        data = np.arange(6.0).reshape(2, 3)
        t = table([("i", Bounded(2)), ("j", Bounded(3))], data)
        node = Reduce(LOGADDEXP_REDUCE, "i", t)
        with interpretation(LAZY):
            renamed = subst_term(node, {"j": Variable("i", Bounded(3))})
        assert isinstance(renamed, Reduce) and renamed.var != "i"
        assert renamed.free_vars.names == ("i",)
        out = interpret(EXACT, renamed).atom
        np.testing.assert_allclose(out.data, np.logaddexp.reduce(data, axis=0))

    def test_markov_timevar_rename(self):
        rng = np.random.default_rng(3)
        ctx = TypeContext(
            [
                ("t", Bounded(4)),
                ("prev", Bounded(2)),
                ("curr", Bounded(2)),
                ("c", Bounded(2)),
            ]
        )
        body = TensorLeaf(TensorAtom(ctx, rng.normal(size=(4, 2, 2, 2))))
        node = MarkovProd("t", (("prev", "curr"),), body)
        with interpretation(LAZY):
            renamed = subst_term(node, {"c": Variable("t", Bounded(2))})
        assert isinstance(renamed, MarkovProd) and renamed.timevar != "t"
        assert set(renamed.free_vars.names) == {"prev", "curr", "t"}


class TestStructuralEquality:
    def test_equal_terms_hash_alike(self):
        a = table([("i", Bounded(2))], [1.0, 2.0])
        b = table([("i", Bounded(2))], [1.0, 2.0])
        assert a == b
        assert hash(a) == hash(b)

    def test_pretty_is_deterministic(self):
        node = Apply(ADD, (scalar_term(1.0), scalar_term(2.0)))
        assert pretty(node) == pretty(Apply(ADD, (scalar_term(1.0), scalar_term(2.0))))


def scalar_term(v):
    return TensorLeaf(scalar_tensor(v))


def term_examples():
    """One instance of every concrete term class."""
    i = table([("i", Bounded(3))], [0.0, 1.0, 2.0])
    j = table([("j", Bounded(2))], [0.0, 1.0])
    real = TypeContext([("x", RealArray((2,)))])
    gauss = GaussianLeaf(GaussianAtom(TypeContext(), real, np.zeros(2), np.eye(2)))
    point = TensorAtom(TypeContext(), np.ones(2), RealArray((2,)))
    bindings = {"i": Variable("k", Bounded(3)), "j": Variable("m", Bounded(2))}
    return {
        TensorLeaf: i,
        GaussianLeaf: gauss,
        DeltaLeaf: DeltaLeaf(DeltaAtom("x", point)),
        Variable: Variable("x", RealArray((2,))),
        Apply: Apply(ADD, [i, j]),
        Subst: Subst(Apply(ADD, [i, j]), bindings),
        Reduce: Reduce(LOGADDEXP_REDUCE, "i", i),
        MarkovProd: MarkovProd("t", [("prev", "curr")], chain_body(), REDUCE_OPS["max"]),
        Slice: Slice("s", 1, 3, 1, 3),
        Cat: Cat("i", [i, j]),
    }


class TestDeclaredFields:
    def test_every_term_rebuilds_from_its_arguments(self):
        examples = term_examples()
        assert set(examples) == set(Term.__subclasses__())
        for cls, t in examples.items():
            assert type(t) is cls
            assert type(t)(*t._args()) == t
            assert _rebuild(t, lambda c: c) is t
            assert infer_type(t) == (t.free_vars, t.output)

    def test_cat_rejects_parts_that_disagree_on_a_shared_name(self):
        short = table([("j", Bounded(2))], [0.0, 1.0])
        long = table([("j", Bounded(3))], [0.0, 1.0, 2.0])
        with pytest.raises(FunsorTypeError):
            Cat("t", [short, long])


class TestCorruptedLeaves:
    def test_perturbed_tensor_shape_fails_inference(self):
        t = table([("i", Bounded(3))], [0.0, 1.0, 2.0])
        # widen the stored data behind the declared context
        bad_atom = object.__new__(TensorAtom)
        for slot in TensorAtom.__slots__:
            object.__setattr__(bad_atom, slot, getattr(t.atom, slot))
        object.__setattr__(bad_atom, "data", np.zeros(4))
        bad = object.__new__(TensorLeaf)
        object.__setattr__(bad, "atom", bad_atom)
        with pytest.raises(TypeError):
            infer_type(bad)

    def test_perturbed_gaussian_shape_fails_inference(self):
        g = GaussianAtom(
            TypeContext(),
            TypeContext([("x", RealArray((2,)))]),
            np.zeros(2),
            np.eye(2),
        )
        bad_atom = object.__new__(GaussianAtom)
        for slot in GaussianAtom.__slots__:
            object.__setattr__(bad_atom, slot, getattr(g, slot))
        object.__setattr__(bad_atom, "info_vec", np.zeros(3))
        bad = object.__new__(GaussianLeaf)
        object.__setattr__(bad, "atom", bad_atom)
        with pytest.raises(TypeError):
            infer_type(bad)
