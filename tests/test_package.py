"""The package's public surface: ``chunkvote.__all__``."""

import types

import chunkvote


def test_every_export_resolves():
    missing = [name for name in chunkvote.__all__ if not hasattr(chunkvote, name)]
    assert missing == []
    assert len(set(chunkvote.__all__)) == len(chunkvote.__all__)


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(chunkvote).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(chunkvote.__all__)) == []
