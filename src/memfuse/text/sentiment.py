"""Rule-based document sentiment scoring over a valence lexicon.

Implements a fixed rule subset on top of a word -> valence ([-4, +4])
lexicon: booster words in a three-token left window, negation flipping,
exclamation emphasis, and ALL-CAPS emphasis in mixed-case documents. The
compound score is the normalized sum of token valences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .preprocess import Token, preprocess, tokenize

__all__ = ["RuleScorer", "SentimentScores", "BOOSTERS", "NEGATIONS"]

BOOSTER_STEP = 0.293
CAPS_BONUS = 0.733
NEGATION_SCALE = -0.74
EXCLAIM_BONUS = 0.292
MAX_EXCLAIM = 3
NORMALIZE_ALPHA = 15.0
# Booster influence decays with distance inside the three-token window.
_WINDOW_DAMPING = (1.0, 0.95, 0.9)

BOOSTERS: dict[str, float] = {
    "absolutely": BOOSTER_STEP,
    "amazingly": BOOSTER_STEP,
    "completely": BOOSTER_STEP,
    "deeply": BOOSTER_STEP,
    "especially": BOOSTER_STEP,
    "extremely": BOOSTER_STEP,
    "highly": BOOSTER_STEP,
    "incredibly": BOOSTER_STEP,
    "really": BOOSTER_STEP,
    "remarkably": BOOSTER_STEP,
    "so": BOOSTER_STEP,
    "totally": BOOSTER_STEP,
    "truly": BOOSTER_STEP,
    "utterly": BOOSTER_STEP,
    "very": BOOSTER_STEP,
    "almost": -BOOSTER_STEP,
    "barely": -BOOSTER_STEP,
    "hardly": -BOOSTER_STEP,
    "kinda": -BOOSTER_STEP,
    "marginally": -BOOSTER_STEP,
    "occasionally": -BOOSTER_STEP,
    "partly": -BOOSTER_STEP,
    "slightly": -BOOSTER_STEP,
    "somewhat": -BOOSTER_STEP,
    "sorta": -BOOSTER_STEP,
}

NEGATIONS: frozenset[str] = frozenset(
    {
        "cannot",
        "neither",
        "never",
        "no",
        "nobody",
        "none",
        "nor",
        "not",
        "nothing",
        "nowhere",
        "rarely",
        "scarcely",
        "seldom",
        "without",
    }
)


@dataclass(frozen=True)
class SentimentScores:
    negative: float
    neutral: float
    positive: float
    compound: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.negative, self.neutral, self.positive, self.compound)


def _normalize(score: float) -> float:
    norm = score / math.sqrt(score * score + NORMALIZE_ALPHA)
    return max(-1.0, min(1.0, norm))


def _mixed_case(words: list[Token]) -> bool:
    caps = sum(1 for w in words if w.raw.isupper() and w.raw.isalpha())
    return 0 < caps < len(words)


@dataclass(frozen=True)
class RuleScorer:
    """A valence lexicon, scored with the module's booster and negation tables."""

    valences: dict[str, float]

    def score(self, text: str) -> SentimentScores:
        """Score a raw document. Empty or word-free text is fully neutral."""
        return self.score_tokens(tokenize(preprocess(text)))

    def score_tokens(self, tokens: list[Token]) -> SentimentScores:
        """Score the token stream of a preprocessed document."""
        # Word positions in the raw stream, so '!' runs can be attributed.
        word_positions = [i for i, t in enumerate(tokens) if t.is_word()]
        words = [tokens[i] for i in word_positions]
        if not words:
            return SentimentScores(0.0, 1.0, 0.0, 0.0)

        mixed = _mixed_case(words)
        valences: list[float] = []
        for wi, token in enumerate(words):
            base = self.valences.get(token)
            if base is None:
                valences.append(0.0)
                continue
            v = base
            if mixed and token.raw.isupper() and token.raw.isalpha():
                v += CAPS_BONUS * _sign(v)
            for dist in (1, 2, 3):
                if wi - dist < 0:
                    break
                prior = words[wi - dist]
                if prior in self.valences:
                    continue
                scalar = BOOSTERS.get(prior)
                if scalar is not None:
                    v += scalar * _WINDOW_DAMPING[dist - 1] * _sign(v)
            for dist in (1, 2, 3):
                if wi - dist < 0:
                    break
                if words[wi - dist] in NEGATIONS:
                    v *= NEGATION_SCALE
            exclaims = 0
            pos = word_positions[wi] + 1
            while pos < len(tokens) and tokens[pos] == "!":
                exclaims += 1
                pos += 1
            if exclaims:
                v += EXCLAIM_BONUS * min(exclaims, MAX_EXCLAIM) * _sign(v)
            valences.append(v)

        compound = _normalize(sum(valences))
        pos_mass = sum(v + 1.0 for v in valences if v > 0)
        neg_mass = sum(-(v - 1.0) for v in valences if v < 0)
        neu_mass = float(sum(1 for v in valences if v == 0))
        total = pos_mass + neg_mass + neu_mass
        return SentimentScores(
            negative=neg_mass / total,
            neutral=neu_mass / total,
            positive=pos_mass / total,
            compound=compound,
        )


def _sign(v: float) -> float:
    if v > 0:
        return 1.0
    if v < 0:
        return -1.0
    return 0.0
