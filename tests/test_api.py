"""The package's public names: ``__all__`` lists each bound name once."""

import types

import hypersplit


def test_all_is_every_public_name_once():
    exported = hypersplit.__all__
    assert len(exported) == len(set(exported))
    bound = {
        name for name, value in vars(hypersplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound
