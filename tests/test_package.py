"""The package surface is the concatenation of its modules' ``__all__``."""

import possirob
from possirob import (combinatorial, experiment, fuzzy, instance_io, linsys,
                      models, simplex, solver)

MODULES = (fuzzy, linsys, simplex, models, solver, combinatorial, experiment,
           instance_io)


def test_package_all_is_the_module_lists_in_order():
    names = [name for module in MODULES for name in module.__all__]
    assert possirob.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(possirob, name) is getattr(module, name)
