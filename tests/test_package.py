"""The package namespace: what ``from qoskit import *`` binds."""

from types import ModuleType

import qoskit


def test_all_names_resolve_and_hold_no_module():
    for name in qoskit.__all__:
        assert not isinstance(getattr(qoskit, name), ModuleType), name
