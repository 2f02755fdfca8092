"""The package's public surface."""

from __future__ import annotations

import types

import qcs


def test_all_lists_every_public_name_the_package_binds():
    bound = {
        name for name, value in vars(qcs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(qcs.__all__) == bound
    assert len(qcs.__all__) == len(bound)
