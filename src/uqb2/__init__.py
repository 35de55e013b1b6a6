"""Exact-arithmetic workbench for the positive part of the type-B2 quantized
enveloping algebra at a primitive m-th root of unity (m >= 5).

Capabilities: cyclotomic field arithmetic, PBW normal forms and centrality
tests, quantum-torus realization checks, Smith normal form / PI degree,
construction and simplicity certification of all simple module families,
isomorphism classification with an independent intertwiner solver, and an
expression parser with a JSON command-line front-end.
"""

from .cyclotomic import CycNum, FieldContext, field_init
from .pbw import PBWAlgebra, PBWElement
from .repmod import ModuleParams, Representation, build, module_params
from .lattice import SNFDecomposition, smith_normal_form, pi_degree
from .isoclass import IsoVerdict, find_intertwiner, iso_predicate

__version__ = "0.1.0"

__all__ = [
    "CycNum",
    "FieldContext",
    "field_init",
    "PBWAlgebra",
    "PBWElement",
    "ModuleParams",
    "Representation",
    "build",
    "module_params",
    "SNFDecomposition",
    "smith_normal_form",
    "pi_degree",
    "IsoVerdict",
    "find_intertwiner",
    "iso_predicate",
    "__version__",
]
