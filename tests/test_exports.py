"""Every name the package exports resolves, so a dropped or renamed export
fails here, not in a user's import."""
import cuspcount


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cuspcount import *", namespace)
    assert [name for name in cuspcount.__all__ if name not in namespace] == []
