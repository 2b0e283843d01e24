"""The package's export list."""

import slicesim


def test_every_exported_name_resolves():
    assert [name for name in slicesim.__all__
            if not hasattr(slicesim, name)] == []
