"""Exact arithmetic for congruence systems, geometric residue sets,
divisibility-lattice combinatorics and filter bases over eventually
periodic sets of non-negative integers.  Submodules and the names below load on first use."""

__version__ = "0.1.0"

_EXPORTS = {
    "crt": "Congruence FeasibilityStream solve_pair solve_system",
    "filter_lab": "FilterBase",
    "geometry": "GeometricDescriptor",
    "periodic_sets": "PeriodicSet divisibility_union make non_divisibility progression",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("antichain", "crt", "filter_lab", "geometry", "lattice", "oracles", "periodic_sets")

__all__ = sorted([*_HOMES, *_SUBMODULES])


def __getattr__(name):
    module = name if name in _SUBMODULES else _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule here
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]
