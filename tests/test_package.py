"""The package namespace: every name it exports resolves."""

import darkbus


def test_every_exported_name_resolves():
    """Each name in ``darkbus.__all__`` appears once and is an attribute of
    the package, and ``from darkbus import *`` binds exactly those names."""
    assert len(set(darkbus.__all__)) == len(darkbus.__all__)
    assert [name for name in darkbus.__all__ if not hasattr(darkbus, name)] == []
    namespace = {}
    exec("from darkbus import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(darkbus.__all__)
