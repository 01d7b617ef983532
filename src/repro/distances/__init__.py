"""Distance measures used by comparison operators.

Each measure implements the paper's signature ``fd : Sigma x Sigma -> R``
(Definition 7): it receives the *value sets* produced by the two value
operators of a comparison and returns a non-negative distance. Character
and token measures lift their pairwise definition to value sets by taking
the minimum distance over the cross product (the convention used by the
Silk framework, in which GenLink was implemented).

The measures listed in Table 2 of the paper (levenshtein, jaccard,
numeric, geographic, date) are all provided, plus Jaro / Jaro-Winkler
which the Carvalho et al. baseline uses.
"""

from repro.distances.base import (
    DistanceMeasure,
    INFINITE_DISTANCE,
    min_over_pairs,
)
from repro.distances.levenshtein import (
    LevenshteinDistance,
    NormalizedLevenshteinDistance,
    levenshtein,
    normalized_levenshtein,
)
from repro.distances.jaccard import JaccardDistance, jaccard_distance
from repro.distances.numeric import NumericDistance, parse_number
from repro.distances.geographic import (
    GeographicDistance,
    haversine_metres,
    parse_point,
)
from repro.distances.dates import DateDistance, parse_date
from repro.distances.jaro import (
    JaroDistance,
    JaroWinklerDistance,
    jaro_similarity,
    jaro_winkler_similarity,
)
from repro.distances.equality import EqualityDistance
from repro.distances.tokenbased import (
    DiceDistance,
    MongeElkanDistance,
    OverlapDistance,
    RelativeNumericDistance,
)
from repro.distances.registry import (
    DistanceRegistry,
    default_registry,
    get_measure,
    measure_names,
)
from repro.distances.strings import StringKernelMemo

__all__ = [
    "DistanceMeasure",
    "INFINITE_DISTANCE",
    "min_over_pairs",
    "LevenshteinDistance",
    "NormalizedLevenshteinDistance",
    "levenshtein",
    "normalized_levenshtein",
    "JaccardDistance",
    "jaccard_distance",
    "NumericDistance",
    "parse_number",
    "GeographicDistance",
    "haversine_metres",
    "parse_point",
    "DateDistance",
    "parse_date",
    "JaroDistance",
    "JaroWinklerDistance",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "EqualityDistance",
    "DiceDistance",
    "MongeElkanDistance",
    "OverlapDistance",
    "RelativeNumericDistance",
    "DistanceRegistry",
    "default_registry",
    "get_measure",
    "measure_names",
    "StringKernelMemo",
]
