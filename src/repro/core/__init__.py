"""PUFFER core: congestion estimation, multi-feature cell padding,
routability-driven placement, and strategy exploration."""

from .analysis import PaddingSummary, padding_histogram, round_trajectory, summarize_padding
from .capacity import CapacityModel
from .congestion import (
    CongestionEstimator,
    CongestionMap,
    EstimatorParams,
    combine_congestion,
)
from .demand import DemandResult, TopologyBatch, accumulate_demand, build_topologies
from .expansion import ExpansionParams, expand_demand
from .features import FEATURE_NAMES, FeatureExtractor, FeatureParams, FeatureSet
from .optimizer import RoundEvent, RoutabilityOptimizer
from .padding import PaddingEngine, PaddingRound
from .puffer import FlowEvent, PufferPlacer, PufferResult
from .rudy import rudy_maps, rudy_overflow
from .strategy import PARAM_GROUPS, StrategyParams, default_space

__all__ = [
    "CapacityModel",
    "CongestionEstimator",
    "CongestionMap",
    "DemandResult",
    "EstimatorParams",
    "ExpansionParams",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "FeatureParams",
    "FeatureSet",
    "FlowEvent",
    "PARAM_GROUPS",
    "PaddingEngine",
    "PaddingRound",
    "PaddingSummary",
    "PufferPlacer",
    "PufferResult",
    "RoundEvent",
    "RoutabilityOptimizer",
    "StrategyParams",
    "TopologyBatch",
    "accumulate_demand",
    "build_topologies",
    "combine_congestion",
    "default_space",
    "expand_demand",
    "padding_histogram",
    "round_trajectory",
    "rudy_maps",
    "rudy_overflow",
    "summarize_padding",
]
