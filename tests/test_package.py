import uqb2


def test_export_list_resolves_and_star_imports():
    assert len(set(uqb2.__all__)) == len(uqb2.__all__)
    assert [name for name in uqb2.__all__ if not hasattr(uqb2, name)] == []
    namespace = {}
    exec("from uqb2 import *", namespace)
    assert {name: namespace[name] for name in uqb2.__all__} == {
        name: getattr(uqb2, name) for name in uqb2.__all__}
