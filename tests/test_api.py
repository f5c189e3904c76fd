"""Census of the library's public surface and its optional parameters.

Every public function and method of the six library modules is listed with
its defaulted parameters.  A parameter that only ever takes one value is a
constant, not an option, and a callable that only its own test calls is
not needed, so both counts are pinned: adding a knob or an API means
changing this file on purpose.
"""

import importlib
import inspect

MODULES = ("bandlimited", "doi", "sinc", "spectral", "ideals", "perturbation")
PUBLIC_CALLABLES = 89
DEFAULTED_PARAMETERS = 37
# parameters that would let a caller replace the one window, the divided-difference
# rule, the bracket policy, the quadrature settings or the suites' spectrum box
REMOVED = {"win", "eps_dd", "refinement", "quad_tol", "half_width", "box"}


def _public_callables():
    """(qualified name, function) for each public function and method, __init__ included."""
    for name in MODULES:
        module = importlib.import_module(f"opcalc.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                for meth, member in vars(obj).items():
                    if meth.startswith("_") and meth != "__init__":
                        continue
                    func = getattr(member, "__func__", member)
                    if inspect.isfunction(func):
                        yield f"{name}.{attr}.{meth}", func


def _defaulted():
    return {
        qualname: [p.name for p in inspect.signature(func).parameters.values()
                   if p.default is not inspect.Parameter.empty]
        for qualname, func in _public_callables()
    }


def test_census_finds_every_module():
    names = {qualname.split(".")[0] for qualname, _ in _public_callables()}
    assert names == set(MODULES)


def test_no_removed_option_returns():
    offenders = {
        qualname: sorted(REMOVED & set(inspect.signature(func).parameters))
        for qualname, func in _public_callables()
    }
    assert not {k: v for k, v in offenders.items() if v}


def test_defaulted_parameter_count_is_pinned():
    census = _defaulted()
    total = sum(len(params) for params in census.values())
    listing = {k: v for k, v in census.items() if v}
    assert total == DEFAULTED_PARAMETERS, listing


def test_public_callable_count_is_pinned():
    names = sorted(qualname for qualname, _ in _public_callables())
    assert len(names) == PUBLIC_CALLABLES, names
