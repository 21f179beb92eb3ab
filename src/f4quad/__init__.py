"""Exact arithmetic and incidence geometry for the characteristic-2
quadrangle with a polarity, its Moufang set, and the sphere/circle
geometry built on it."""

from .fields import (K_ONE, K_S, K_T, K_ZERO, L_E, L_ONE, L_ZERO, Check,
                     CheckList, FieldError, FieldInstance, KElem, LElem,
                     default_instance, kprime_decompose, kprime_member,
                     kscale, phi_k, theta_k)
from .moufang import (Block, ClosureError, MoufangPoint, MoufangSet,
                      ReconstructedQuadrangle, UnsupportedBlock,
                      derived_net_report, reconstruct_quadrangle,
                      reconstruct_report)
from .parser import ParseError, parse_instance_file, parse_instance_text
from .polynomials import (P_ONE, P_S, P_T, P_ZERO, Poly2, poly_divexact,
                          poly_gcd)
from .quadrangle import (Flag, ProjectionUnsupported, QLine, QPoint,
                         Quadrangle)
from .rootgroups import (InternalConsistencyError, R1Coord, R2Coord, UPlus,
                         UPlusElem)
from .sampling import Rng
from .verifier import SuiteConfig, emit_jsonl, emit_text, run

__all__ = [
    "Block", "Check", "CheckList", "ClosureError", "FieldError",
    "FieldInstance", "Flag", "InternalConsistencyError", "K_ONE", "K_S",
    "K_T", "K_ZERO", "KElem", "L_E", "L_ONE", "L_ZERO", "LElem",
    "MoufangPoint", "MoufangSet", "P_ONE", "P_S", "P_T", "P_ZERO",
    "ParseError", "Poly2", "ProjectionUnsupported", "QLine", "QPoint",
    "Quadrangle", "R1Coord", "R2Coord", "ReconstructedQuadrangle", "Rng",
    "SuiteConfig", "UPlus", "UPlusElem", "UnsupportedBlock",
    "default_instance", "derived_net_report", "emit_jsonl", "emit_text",
    "kprime_decompose", "kprime_member", "kscale", "parse_instance_file",
    "parse_instance_text", "phi_k", "poly_divexact", "poly_gcd",
    "reconstruct_quadrangle", "reconstruct_report", "run", "theta_k",
]
