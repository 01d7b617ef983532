"""Rule execution engine: apply linkage rules to whole data sources.

The paper scopes rule *execution* out (Section 3) and refers to the
MultiBlock engine of the Silk framework; this package provides the
equivalent substrate: candidate generation via blocking, batch rule
evaluation and link generation, plus evaluation of generated link sets
against reference links.
"""

from repro.matching.blocking import (
    Blocker,
    FullIndexBlocker,
    RuleBlocker,
    TokenBlocker,
)
from repro.matching.engine import (
    GeneratedLink,
    MatchingEngine,
    default_blocker,
    generate_links,
)
from repro.matching.evaluation import LinkEvaluation, evaluate_links
from repro.matching.multiblock import (
    BlockingQuality,
    MultiBlocker,
    blocking_quality,
    multiblock_supports,
)

__all__ = [
    "Blocker",
    "FullIndexBlocker",
    "RuleBlocker",
    "TokenBlocker",
    "GeneratedLink",
    "MatchingEngine",
    "default_blocker",
    "generate_links",
    "LinkEvaluation",
    "evaluate_links",
    "BlockingQuality",
    "MultiBlocker",
    "blocking_quality",
    "multiblock_supports",
]
