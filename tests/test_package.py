"""The package's public names: each module's ``__all__``, re-exported once."""

import fractal_impedance
from fractal_impedance import controllers, dynamics, energy_audit, fic_core, sim_harness

MODULES = (fic_core, dynamics, controllers, energy_audit, sim_harness)


def test_star_import_binds_exactly_the_module_names():
    names = fractal_impedance.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from fractal_impedance import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    assert namespace.pop("__version__") == fractal_impedance.__version__
    owners = {name: mod for mod in MODULES for name in mod.__all__}
    assert sorted(owners) == sorted(namespace)
    for name, obj in namespace.items():
        assert obj is getattr(owners[name], name)
        assert obj.__module__ == owners[name].__name__  # defined there, not imported
