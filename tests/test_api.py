"""The public API: ``inertiq.__all__`` and the package's public names agree."""

import types

import inertiq


class TestPublicApi:
    def test_every_listed_name_resolves(self):
        assert [name for name in inertiq.__all__ if not hasattr(inertiq, name)] == []

    def test_no_duplicates(self):
        assert len(set(inertiq.__all__)) == len(inertiq.__all__)

    def test_every_public_attribute_is_listed(self):
        public = {name for name, value in vars(inertiq).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert sorted(public - set(inertiq.__all__)) == []

    def test_star_import(self):
        namespace = {}
        exec("from inertiq import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(inertiq.__all__)
