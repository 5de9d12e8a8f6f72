import types

import monstertower


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(monstertower.__all__)) == len(monstertower.__all__)
    for name in monstertower.__all__:
        value = getattr(monstertower, name)
        assert not isinstance(value, types.ModuleType), name
