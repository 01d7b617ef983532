"""The baseline learner the paper compares against (Section 6.2).

:mod:`repro.baselines.carvalho` re-implements the state-of-the-art GP
approach of de Carvalho et al. (TKDE 24(3), 2012) from its
description: arithmetic function trees over pre-supplied
<attribute, similarity function> pairs. Tables 7 and 8 compare GenLink
with it on Cora and Restaurant.
"""

from repro.baselines.carvalho import (
    CarvalhoConfig,
    CarvalhoGP,
    CarvalhoResult,
    SimilarityFeatures,
)

__all__ = [
    "CarvalhoConfig",
    "CarvalhoGP",
    "CarvalhoResult",
    "SimilarityFeatures",
]
