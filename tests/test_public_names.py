"""`zdtrade.__all__` is a hand-kept list: it must name exactly the public
objects that the package binds, once each."""

import types

import zdtrade


def test_all_lists_every_public_name_once():
    assert len(zdtrade.__all__) == len(set(zdtrade.__all__))
    bound = {name for name, value in vars(zdtrade).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(zdtrade.__all__) == bound
