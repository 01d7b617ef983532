"""Compiled, vectorized rule-execution engine.

The execution substrate shared by GP learning and link generation:
rule trees compile into deduplicated plans (:mod:`repro.engine.compiler`),
pair lists materialise into columnar stores (:mod:`repro.engine.columns`),
and numpy kernels (:mod:`repro.engine.kernels`) turn cached distance
columns into score vectors. :class:`EngineSession` is the persistent
entry point; see ``docs/engine.md`` for the architecture.
"""

from repro.engine.compiler import (
    CompiledAggregation,
    CompiledComparison,
    CompiledPlan,
    CompiledSimilarity,
    ComparisonOp,
    GenerationDiff,
    RuleCompiler,
)
from repro.engine.executor import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    WORKERS_ENV,
    resolve_executor,
)
from repro.engine.kernels import aggregate_scores, threshold_scores
from repro.engine.lru import CacheStats, LRUCache
from repro.engine.session import EngineSession, EngineStats, PairContext
from repro.engine.store import (
    CACHE_ENV,
    ColumnStore,
    StoreStats,
    resolve_store,
)
from repro.engine.values import evaluate_value_op

__all__ = [
    "CACHE_ENV",
    "CacheStats",
    "ColumnStore",
    "StoreStats",
    "CompiledAggregation",
    "CompiledComparison",
    "CompiledPlan",
    "CompiledSimilarity",
    "ComparisonOp",
    "EngineSession",
    "EngineStats",
    "Executor",
    "GenerationDiff",
    "LRUCache",
    "PairContext",
    "RuleCompiler",
    "SerialExecutor",
    "ThreadExecutor",
    "WORKERS_ENV",
    "aggregate_scores",
    "threshold_scores",
    "evaluate_value_op",
    "resolve_executor",
    "resolve_store",
]
