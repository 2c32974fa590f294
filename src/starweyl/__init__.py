"""Affine Weyl group actions on star quivers and Fuchsian systems, with
the dual Cremona dynamics on point configurations.

Modules: dynkin (exact root/Weyl engine), quiver (exact moment maps and
the increment calculus), fuchsian (residue tuples, sampling, invariants),
weylops (matrix-level reflections, middle convolution, Schlesinger
translations), sakai (Picard lattice and cuspidal-cubic configurations),
tolerances (the tolerance table), serialize (file formats) and cli
(the `starweyl` command).

The public names below load their submodule on first use (PEP 562), so
importing the package, or a command that needs no matrix code, does not
import numpy.
"""

import importlib

# the public names, by the submodule that defines them
_SUBMODULES = {
    "dynkin": ("AFFINE_TYPES", "AffineWeylElement", "ParamVector",
               "RootVector", "StarGraph", "enumerate_roots",
               "hyperplane_count", "is_regular", "lattice_index",
               "reflect_param", "reflect_root", "weight_lattice_basis",
               "weight_lattice_member"),
    "errors": ("DegeneracyError", "InputFormatError", "StarweylError"),
    "fuchsian": ("FuchsianSystem", "OrbitSpec", "Signature", "is_irreducible",
                 "leg_from_orbit", "make_system", "normalize",
                 "orbit_from_leg", "sample_system", "signature"),
    "quiver": ("AlmostAffineQuiver", "DimensionVector", "IncrementedQuiver",
               "QuiverRep", "dim_w", "expected_dim", "moment_map",
               "orbit_dimension", "permute_params", "project_params",
               "shift_params"),
    "sakai": ("PicardLattice", "PointConfig", "chi", "cremona_reflect",
              "reflect_pic", "sakai_orbit", "swap_points", "wall_check"),
    "weylops": ("IncrementedPair", "apply_word", "central_reflection",
                "dp_orbit", "leg_reflection", "lift",
                "light_translation_basis", "project", "scalar_shift",
                "tensor_shift", "translate"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items()
            for name in names}

__version__ = "0.1.0"
__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
