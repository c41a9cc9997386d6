"""The package's public surface: every exported name resolves."""

import phasenu


def test_every_exported_name_resolves():
    missing = [name for name in phasenu.__all__ if not hasattr(phasenu, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from phasenu import *", namespace)
    assert set(phasenu.__all__) <= set(namespace)
