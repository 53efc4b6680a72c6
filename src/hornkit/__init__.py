"""hornkit: vanishing of products of Grassmannian Schubert classes.

Three independent deciders — a recursive Horn-inequality criterion, a
randomized exact transversality test over a large prime field, and a
brute-force Littlewood-Richardson oracle — plus a kernel-descent witness
procedure that, for a vanishing product, produces and certifies an
explicitly violated inequality.
"""

from .strings import (
    Partition,
    StepString,
    all_partitions,
    format_partition,
    lift,
    parse_partition,
    partition_to_string,
    string_to_partition,
    substring_uv,
)
from .horn import (
    HornInequality,
    Verdict,
    Violation,
    enumerate_horn,
    evaluate,
    horn_verdict,
    lr_oracle,
    schur_expand,
)
from .tangent import (
    TransversalityReport,
    transversality_verdict,
)
from .witness import (
    GenericityExhausted,
    NonVanishingProduct,
    WitnessLevel,
    WitnessTrace,
    find_witness,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "StepString",
    "all_partitions",
    "format_partition",
    "lift",
    "parse_partition",
    "partition_to_string",
    "string_to_partition",
    "substring_uv",
    "HornInequality",
    "Verdict",
    "Violation",
    "enumerate_horn",
    "evaluate",
    "horn_verdict",
    "lr_oracle",
    "schur_expand",
    "TransversalityReport",
    "transversality_verdict",
    "GenericityExhausted",
    "NonVanishingProduct",
    "WitnessLevel",
    "WitnessTrace",
    "find_witness",
    "verify_witness",
    "__version__",
]
