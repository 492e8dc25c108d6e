"""The package's public names are the modules' own lists."""

import isork
from isork import diagnostics, integrator, quadlie, systems, tableau

MODULES = (diagnostics, integrator, quadlie, systems, tableau)


def test_all_is_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert isork.__all__ == names + ["__version__"]
    assert len(set(isork.__all__)) == len(isork.__all__)


def test_every_name_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(isork, name) is getattr(module, name)
    assert isinstance(isork.__version__, str)
