"""Exact computation in the universal abelian category on a quiver.

The layers, bottom to top: exact linear algebra over Q, F_p and Z
(``linalg``, ``subobjects``); quivers and typed matrices over the path
algebra (``quivers``); concrete representations and their evaluation
(``representations``); finitely presented modules with Hom computation and
free realizations (``fpmodules``); pp formulas and pairs with exact
evaluation and implication decisions (``formulas``, ``dsl``); the category
of pairs with pp-defined maps, kernels, cokernels, the canonical diagram
embedding and Serre-kernel membership (``abcat``); simplicial pairs and
their homology-generated diagram representations (``simplicial``,
``nori``); text formats and a batch CLI (``formats``, ``cli``).
"""

from .abcat import (AbMorphism, AbObject, DiagramEmbedding,
                    SerreKernelOracle, check_morphism, cokernel, compose,
                    direct_sum, equal_in_quotient, evaluate_object,
                    identity_morphism, in_kernel, induced_functor_eval,
                    kernel, object_from_presentation,
                    same_regular_theory_bounded, zero_morphism)
from .dsl import parse_formula, render_formula
from .errors import (CyclicQuiverUnsupported, EngineError, InvalidMorphism,
                     MismatchError, MissingPresentation, ParseError)
from .formulas import (PpFormula, PpPair, conjoin, evaluate, implies_all,
                       is_closed, pair_value, project, sum_formula)
from .fpmodules import (ElementTuple, FpModule, FpMorphism,
                        element_satisfies, free_realization, hom_basis)
from .linalg import ConcreteMatrix, smith_normal_form, solve
from .nori import (NoriDiagram, PairsCategoryData, build_nori_diagram,
                   check_les_exactness, homology_representation)
from .quivers import AlgebraElement, Path, Quiver, TypedMatrix, path_basis
from .representations import Fiber, Representation
from .scalars import GF, QQ, ZZ, PrimeField, ScalarRing, ring_from_tag
from .simplicial import (RelativeHomology, SimplicialComplex, SimplicialMap,
                         SimplicialPair)
from .subobjects import Ambient, QuotientInvariants, SubobjectData

__version__ = "0.1.0"
