import types

import starpal


def test_all_names_resolve_once():
    assert len(starpal.__all__) == len(set(starpal.__all__))
    for name in starpal.__all__:
        assert hasattr(starpal, name), name


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(starpal).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(starpal.__all__)
