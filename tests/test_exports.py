from __future__ import annotations

import floquet_hhg


def test_every_public_name_imports():
    # a name left in __all__ after its definition is gone makes
    # ``from floquet_hhg import *`` raise
    namespace: dict = {}
    exec("from floquet_hhg import *", namespace)
    assert set(floquet_hhg.__all__) <= namespace.keys()
