"""Simulated language models: profiles, corruption model, decoding, pricing."""

from repro.llm.engine import (
    PromptPrefixCache,
    PromptSegment,
    clear_prefix_cache,
    prefix_cache,
)
from repro.llm.profile import FineTuneState, ModelProfile
from repro.llm.registry import MODEL_REGISTRY, get_profile
from repro.llm.tokens import count_tokens
from repro.llm.pricing import PRICE_SHEET, prompt_cost
from repro.llm.prompt import Prompt, PromptFeatures
from repro.llm.model import GenerationCandidate, SimulatedLanguageModel
from repro.llm.finetune import fine_tune_boost, make_finetune_state

__all__ = [
    "PromptPrefixCache",
    "PromptSegment",
    "clear_prefix_cache",
    "prefix_cache",
    "FineTuneState",
    "ModelProfile",
    "MODEL_REGISTRY",
    "get_profile",
    "count_tokens",
    "PRICE_SHEET",
    "prompt_cost",
    "Prompt",
    "PromptFeatures",
    "GenerationCandidate",
    "SimulatedLanguageModel",
    "fine_tune_boost",
    "make_finetune_state",
]
