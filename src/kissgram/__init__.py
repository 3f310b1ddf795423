"""kissgram: search engine and exact verifier for kissing-number configurations.

The package models configuration construction as Gram-matrix completion:
a tree-search filler extends a partial cosine matrix under discrete cosine,
positive-semidefiniteness and rank constraints, a learned corrector deletes
suboptimal rows, and an exact verifier certifies the results.
"""

from .cosines import CosineSet, CosineValue, simulate_cosine_set, solve_tangent
from .corrector import CorrectorPolicy, apply_correction, sample_index_set
from .filler import ActionSpec, CapOnly, DiscreteSet, MembershipList, SearchTree
from .game import GameConfig, SeedSpec, decompose_reassemble, play_episode, team_reward, train_loop
from .gram import (
    FactorCache,
    GramState,
    Tolerances,
    extend,
    factorize,
    is_psd,
    rank_of,
    reconstruct_vectors,
)
from .rational import exact_ldlt
from .refconfigs import GeneratorId, generate
from .verify import Certificate, spectrum_report, verify_gram, verify_vectors

__version__ = "0.1.0"

__all__ = [
    "ActionSpec", "CapOnly", "Certificate", "CorrectorPolicy",
    "CosineSet", "CosineValue", "DiscreteSet", "FactorCache", "GameConfig",
    "GeneratorId", "GramState", "MembershipList", "SearchTree", "SeedSpec",
    "Tolerances", "apply_correction", "decompose_reassemble", "exact_ldlt",
    "extend", "factorize", "generate", "is_psd", "play_episode",
    "rank_of", "reconstruct_vectors", "sample_index_set",
    "simulate_cosine_set", "solve_tangent", "spectrum_report", "team_reward",
    "train_loop", "verify_gram", "verify_vectors",
]
