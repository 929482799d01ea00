import rprime


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from rprime import *", namespace)  # AttributeError on a stale name
    assert [name for name in rprime.__all__ if name not in namespace] == []
    assert len(set(rprime.__all__)) == len(rprime.__all__)
