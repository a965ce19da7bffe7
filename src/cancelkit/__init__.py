"""cancelkit: exact polynomial ideal arithmetic and mechanical
verification of a cancellation theorem for ideals.

The ambient "local Gorenstein ring" of the theory is instantiated as a
(possibly weighted) graded polynomial ring over an exact field at its
graded maximal ideal.
"""

from .cache import GBCache, Store, active_store
from .cancellation import (CancellationHypotheses, LinkReport, WitnessTrace,
                           cancel_check, check_hypotheses,
                           construct_witness, corollary213_check,
                           link_ideal, power_containment_scan)
from .errors import (ArityMismatch, BadRegularSequence, CancelkitError,
                     HypothesisFailed, NotGraded, NotHomogeneous,
                     NotReduction, NotSubideal, PreconditionUnmet,
                     RequiresDimensionOne, ResourceExceeded, RingMismatch,
                     ScriptSyntaxError, SearchExhausted, TheoremViolation,
                     ZeroColon, ZeroInversion)
from .fields import (DEFAULT_PRIME, PrimeField, RationalField,
                     field_from_spec)
from .gb import GroebnerBasis, buchberger, normal_form
from .ideals import (DimensionReport, Ideal, kernel_of_map, minimal_kernel,
                     radical_contains)
from .orders import Block, Grevlex, Lex
from .reductions import (MinimalReductionSearch, ReductionReport,
                         find_minimal_reduction, reduction_number)
from .rees import (ReesPresentation, SyzygeticReport, graded_piece,
                   is_syzygetic, rees_presentation)
from .resolutions import (CohomologySummary, FreeResolution,
                          cohomology_summary, free_resolution)
from .ring import Polynomial, Ring
from .script import RunFlags, parse_script, run

__version__ = "0.1.0"
