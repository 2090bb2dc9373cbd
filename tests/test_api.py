"""Each public name of todasnf is declared once, in the __all__ of the
module that defines it, and the package re-exports those lists."""

import pytest

import todasnf
from todasnf import elimination, gcd_toda, matrix, ring, snf, ud_toda

MODULES = (ring, ud_toda, gcd_toda, matrix, elimination, snf)


def test_each_public_name_has_one_home():
    homes = {}
    for module in MODULES:
        for name in module.__all__:
            homes.setdefault(name, []).append(module)
    assert sorted(homes) == todasnf.__all__
    assert len(todasnf.__all__) == 42
    for name, (module, *others) in homes.items():
        assert not others, name
        value = getattr(todasnf, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__, name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_a_star_import_binds_only_the_module_list(module):
    # Without an __all__ a star-import also hands out the module's own
    # imports (annotations, chain, ZZ, settled, ... from gcd_toda).
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
