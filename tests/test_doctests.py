import doctest
import importlib
import pkgutil

import kpeterson


def test_every_module_doctest_passes():
    failed = {}
    for info in pkgutil.iter_modules(kpeterson.__path__, kpeterson.__name__ + "."):
        result = doctest.testmod(importlib.import_module(info.name))
        if result.failed:
            failed[info.name] = result.failed
    assert not failed
