"""The package root lists exactly the names it exports.

A deleted or renamed engine function must also leave ``funsor.__all__``,
and a name imported into the package root must be listed there.
"""
import types

import funsor


def test_all_has_no_duplicates():
    assert len(funsor.__all__) == len(set(funsor.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in funsor.__all__ if not hasattr(funsor, name)]
    assert missing == []


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(funsor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(funsor.__all__)) == []
