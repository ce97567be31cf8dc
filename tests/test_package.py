"""The package's public surface."""
import erunion


def test_star_import_resolves_every_export():
    # a stale name in __all__ makes the star import itself raise
    namespace = {}
    exec("from erunion import *", namespace)
    assert set(erunion.__all__) <= namespace.keys()
