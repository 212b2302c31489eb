"""Types and typing contexts: construction, union, removal, conflicts."""

import pytest

from funsor.domains import Bounded, RealArray, TypeContext
from funsor.errors import NameAbsent, TypeConflict


class TestTypes:
    def test_bounded_size(self):
        assert Bounded(3).size == 3
        assert Bounded(3).num_elements == 3
        assert Bounded(1).size == 1

    def test_bounded_rejects_bad_sizes(self):
        with pytest.raises(TypeConflict):
            Bounded(0)
        with pytest.raises(TypeConflict):
            Bounded(-2)
        with pytest.raises(TypeConflict):
            Bounded(2.0)

    def test_real_array_shapes(self):
        assert RealArray(()).shape == ()
        assert RealArray((2, 3)).num_elements == 6
        with pytest.raises(TypeConflict):
            RealArray((0,))

    def test_equality(self):
        assert Bounded(4) == Bounded(4)
        assert Bounded(4) != Bounded(5)
        assert RealArray((2,)) == RealArray((2,))
        assert RealArray((2,)) != RealArray((3,))
        assert Bounded(2) != RealArray((2,))


class TestTypeContext:
    def test_order_preserved_equality_ignores_it(self):
        a = TypeContext([("x", Bounded(2)), ("y", RealArray(()))])
        b = TypeContext([("y", RealArray(())), ("x", Bounded(2))])
        assert a == b
        assert hash(a) == hash(b)
        assert a.names == ("x", "y")
        assert b.names == ("y", "x")

    def test_duplicates_collapse_conflicts_raise(self):
        c = TypeContext([("x", Bounded(2)), ("x", Bounded(2))])
        assert len(c) == 1
        with pytest.raises(TypeConflict):
            TypeContext([("x", Bounded(2)), ("x", Bounded(3))])

    def test_typeof_and_membership(self):
        c = TypeContext([("x", Bounded(2))])
        assert c.typeof("x") == Bounded(2)
        assert "x" in c and "y" not in c
        with pytest.raises(NameAbsent):
            c.typeof("y")

    def test_union_appends_new_names(self):
        a = TypeContext([("x", Bounded(2))])
        b = TypeContext([("x", Bounded(2)), ("y", Bounded(3))])
        assert a.union(b).names == ("x", "y")
        assert b.union(a).names == ("x", "y")

    def test_union_conflict(self):
        a = TypeContext([("x", Bounded(2))])
        b = TypeContext([("x", RealArray(()))])
        with pytest.raises(TypeConflict):
            a.union(b)

    def test_union_adding_no_names_is_the_left_operand(self):
        a = TypeContext([("x", Bounded(2)), ("y", Bounded(3))])
        for other in (
            TypeContext(),
            TypeContext([("y", Bounded(3))]),
            TypeContext([("y", Bounded(3)), ("x", Bounded(2))]),
        ):
            assert a.union(other) is a

    def test_union_adding_no_names_still_checks_types(self):
        a = TypeContext([("x", Bounded(2)), ("y", Bounded(3))])
        for other in (
            TypeContext([("y", Bounded(4))]),
            TypeContext([("x", Bounded(2)), ("y", RealArray(()))]),
        ):
            with pytest.raises(TypeConflict):
                a.union(other)

    def test_remove(self):
        c = TypeContext([("x", Bounded(2)), ("y", Bounded(3))])
        assert c.remove("x").names == ("y",)
        with pytest.raises(NameAbsent):
            c.remove("z")

    def test_num_elements(self):
        c = TypeContext([("x", Bounded(2)), ("v", RealArray((3,)))])
        assert c.num_elements == 6

    def test_partition_by_kind(self):
        c = TypeContext([("x", Bounded(2)), ("v", RealArray((3,)))])
        assert [n for n, _ in c.real_entries()] == ["v"]
