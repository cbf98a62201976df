"""Finite regular and inverse monoids, their Green's-relation structure, and
exact-rational irreducible representations via reduction and induction.

Every command builds a monoid, so `elements` is imported with the package.
The other layers are registered in sys.modules as lazy modules and run
their code on first attribute access: `order S:5` never compiles the
representation layers.  The public names below are re-exported through
__getattr__, which loads the layer that defines the name.
"""

import importlib.util
import sys

from . import elements


def _lazy(name: str):
    """monoidrep.<name> in sys.modules, its code run on first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


lattice = _lazy("lattice")
green = _lazy("green")
linrep = _lazy("linrep")
specht = _lazy("specht")
cliffmunn = _lazy("cliffmunn")

_EXPORTS = {
    "elements": (
        "ClosureCapError", "DegreeMismatchError", "ElementParseError",
        "FiniteMonoid", "PartialBijection", "Permutation", "Transformation",
        "closure", "cycle_link_format", "cycle_link_parse",
        "full_transformation_monoid", "symmetric_group", "symmetric_inverse_monoid",
    ),
    "green": (
        "Eggbox", "GreenClasses", "JPoset", "Transversal", "apex_labels",
        "eggbox", "green_structure", "hclass_decompose", "lclass_coordinates",
        "maximal_subgroup", "monoid_green", "transversal",
    ),
    "lattice": (
        "FiniteLattice", "GroupAction", "LatticeError", "SGLContext",
        "SGLElement", "sgl_context", "make_lattice", "partition_lattice_report",
        "sgl_monoid", "sgl_order", "subsets_to_partial_bijection",
    ),
    "linrep": (
        "Representation", "Subspace", "VerificationError", "char_equal",
        "commutant_dim", "direct_sum", "exterior_power", "intertwiner_space",
        "is_irreducible", "mapping_rep", "one_dim_invariant_lines",
        "quotient_rep", "restrict_rep", "serialize_representation", "spin",
        "trivial_rep",
    ),
    "specht": (
        "SpechtData", "column_group", "compositions", "partitions",
        "polytabloid", "specht_rep", "standard_tableaux",
        "standard_tableaux_count", "tabloid_module", "tabloids",
    ),
    "cliffmunn": (
        "ApexError", "CatalogEntry", "CatalogError", "InducedRaw", "ReducedRep",
        "SemisimpleReport", "annihilator", "apex", "cm_catalog",
        "cm_roundtrip_check", "composition_leq", "decompose", "induce",
        "induce_raw", "reduce_rep", "renner_permutohedron_catalog",
        "semisimple_predicate", "support_jclasses",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
