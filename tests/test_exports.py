"""The package's export list."""

import cpreg


def test_every_export_resolves_once():
    assert len(cpreg.__all__) == len(set(cpreg.__all__))
    assert [name for name in cpreg.__all__ if not hasattr(cpreg, name)] == []
