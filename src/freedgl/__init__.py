"""freedgl: exact-arithmetic complete free DGL models of simplicial complexes."""

from .lie import (
    ConfigError, DomainError, StructError, SolveError,
    GenSet, Elt, FreeDGL, DGLMap, Derivation,
    bracket, dynkin_theta, dynkin_verify, is_lie,
    lyndon_words, lyndon_basis, generator_elt, zero_elt,
)
from .series import (
    bch, exp_ad, bernoulli_op, bernoulli_op_inverse,
    is_mc, mc_residue, gauge, twist,
)
from .serialize import ParseError, emit_element, parse_element, emit_dgl, parse_dgl
from .simplex import (
    SimplexModel, ModelFamily, seed_family, build_model, build_symmetric_model,
    interval_model, triangle_model, tetra_model, check_model_axioms,
    subdivision_morphism, barycentric_mc, generator_homology,
)
from .homology import (
    HomologyReport, MalcevQuotient, homology, linear_homology,
    pi_n, malcev_tower, tower_layers, verify_simplex,
)
from .complexes import (
    SimplicialComplex, ComplexModel, parse_complex, model_of_complex,
    components, subcomplex, localize, minimal_model, maximal_tree,
)
from .whitney import (
    PolyForm, Cochain, elementary_form, exterior_d, wedge,
    whitney_i, integrate_p, cochain_d, face_integral, restrict,
)

__all__ = [
    "ConfigError", "DomainError", "StructError", "SolveError",
    "GenSet", "Elt", "FreeDGL", "DGLMap", "Derivation",
    "bracket", "dynkin_theta", "dynkin_verify", "is_lie",
    "lyndon_words", "lyndon_basis", "generator_elt", "zero_elt",
    "bch", "exp_ad", "bernoulli_op", "bernoulli_op_inverse",
    "is_mc", "mc_residue", "gauge", "twist",
    "ParseError", "emit_element", "parse_element", "emit_dgl", "parse_dgl",
    "SimplexModel", "ModelFamily", "seed_family", "build_model",
    "build_symmetric_model", "interval_model", "triangle_model", "tetra_model",
    "check_model_axioms", "subdivision_morphism", "barycentric_mc",
    "generator_homology",
    "HomologyReport", "MalcevQuotient", "homology", "linear_homology",
    "pi_n", "malcev_tower", "tower_layers", "verify_simplex",
    "SimplicialComplex", "ComplexModel", "parse_complex", "model_of_complex",
    "components", "subcomplex", "localize", "minimal_model", "maximal_tree",
    "PolyForm", "Cochain", "elementary_form", "exterior_d", "wedge",
    "whitney_i", "integrate_p", "cochain_d", "face_integral", "restrict",
]

__version__ = "0.1.0"
