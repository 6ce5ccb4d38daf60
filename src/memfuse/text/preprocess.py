"""Text normalization front end: preprocessing, tokenization, lemmatization.

The preprocessing rules run in a fixed order: decade references, year
references, remaining numbers, contractions. Possessive "'s" is deliberately
not expanded (ambiguous with "is").

A rule runs only where it can match. Every number rule needs a digit, so the
three run only when the text holds one, by the same digit class the rules use
(non-ASCII digits count too). Every contraction rule needs a "'", so the
seven run only when the text holds one after the number rules. A skipped rule
would have left the text as it is, so the output is the same. The contraction
rules repeat while they change the text (each pass frees one more "n't" of a
stacked "won'tn't"); a changing pass removes a "'", so the repeats end.
"""

from __future__ import annotations

import re

__all__ = ["preprocess", "tokenize", "lemmatize", "Token"]

# "the 90s", "the 1990s", "'90s" and bare "90s" all become "that decade".
_DECADE_RE = re.compile(r"(?<![\w'])(?:[Tt]he\s+)?'?(?:19|20)?\d0s\b")
_YEAR_RE = re.compile(r"\b(?:19|20)\d{2}\b")
_NUMBER_RE = re.compile(r"\d+")
_DIGIT_RE = re.compile(r"\d")  # each number rule needs a match of this

# Whole-word contractions, handled before the generic suffix rules.
_WORD_CONTRACTIONS = {
    "can't": "cannot",
    "won't": "will not",
    "it's": "it is",
    "that's": "that is",
}
# Suffix contractions; "'s" is intentionally absent.
_SUFFIX_CONTRACTIONS = [
    (re.compile(r"(?<=[A-Za-z])n't\b", re.IGNORECASE), " not"),
    (re.compile(r"(?<=[A-Za-z])'re\b", re.IGNORECASE), " are"),
    (re.compile(r"(?<=[A-Za-z])'ve\b", re.IGNORECASE), " have"),
    (re.compile(r"(?<=[A-Za-z])'ll\b", re.IGNORECASE), " will"),
    (re.compile(r"(?<=[A-Za-z])'d\b", re.IGNORECASE), " would"),
    (re.compile(r"(?<=[A-Za-z])'m\b", re.IGNORECASE), " am"),
]
_WORD_CONTRACTION_RE = re.compile(
    r"\b(" + "|".join(re.escape(w) for w in _WORD_CONTRACTIONS) + r")\b",
    re.IGNORECASE,
)


def _replace_word_contraction(match: re.Match) -> str:
    found = match.group(0)
    replacement = _WORD_CONTRACTIONS[found.lower()]
    if found[0].isupper():
        return replacement[0].upper() + replacement[1:]
    return replacement


def preprocess(text: str) -> str:
    """Normalize temporal references, numbers and contractions.

    Idempotent: applying it to its own output changes nothing.
    """
    if _DIGIT_RE.search(text):
        text = _DECADE_RE.sub("that decade", text)
        text = _YEAR_RE.sub("that year", text)
        text = _NUMBER_RE.sub("0", text)
    before = None
    while "'" in text and text != before:
        before = text
        text = _WORD_CONTRACTION_RE.sub(_replace_word_contraction, text)
        for pattern, replacement in _SUFFIX_CONTRACTIONS:
            text = pattern.sub(replacement, text)
    return text


class Token(str):
    """A lowercased token that remembers its original-case form.

    Compares and hashes as the lowercase string, so token lists can be
    checked against plain strings; `raw` keeps the capitalization cue for
    the rule-based sentiment scorer.
    """

    raw: str

    def __new__(cls, lowered: str, raw: str | None = None) -> "Token":
        obj = super().__new__(cls, lowered)
        obj.raw = raw if raw is not None else lowered
        return obj

    def is_word(self) -> bool:
        """True for word-like tokens (letters or digits), False for punctuation."""
        return self[0].isalnum() if self else False


# Words with internal apostrophes stay whole ("mother's"); every other
# non-space, non-alphanumeric character becomes its own token.
_TOKEN_RE = re.compile(r"[A-Za-z]+(?:'[A-Za-z]+)*|\d+|[^\sA-Za-z\d]")


def tokenize(text: str) -> list[Token]:
    """Split into lowercase word tokens plus punctuation tokens."""
    return [Token(raw.lower(), raw) for raw in _TOKEN_RE.findall(text)]


# Irregular forms and words a suffix rule would mangle.
_IRREGULARS = {
    "ate": "eat",
    "became": "become",
    "began": "begin",
    "bought": "buy",
    "broke": "break",
    "brought": "bring",
    "built": "build",
    "came": "come",
    "caught": "catch",
    "children": "child",
    "chose": "choose",
    "did": "do",
    "died": "die",
    "does": "do",
    "goes": "go",
    "drank": "drink",
    "drove": "drive",
    "fell": "fall",
    "felt": "feel",
    "feet": "foot",
    "flew": "fly",
    "forgot": "forget",
    "found": "find",
    "gave": "give",
    "got": "get",
    "grew": "grow",
    "had": "have",
    "heard": "hear",
    "held": "hold",
    "kept": "keep",
    "knew": "know",
    "left": "leave",
    "lost": "lose",
    "made": "make",
    "meant": "mean",
    "men": "man",
    "met": "meet",
    "paid": "pay",
    "ran": "run",
    "rode": "ride",
    "rose": "rise",
    "said": "say",
    "sang": "sing",
    "sat": "sit",
    "saw": "see",
    "slept": "sleep",
    "spent": "spend",
    "spoke": "speak",
    "stood": "stand",
    "swam": "swim",
    "taught": "teach",
    "teeth": "tooth",
    "thought": "think",
    "threw": "throw",
    "told": "tell",
    "took": "take",
    "understood": "understand",
    "used": "use",
    "went": "go",
    "woke": "wake",
    "women": "woman",
    "won": "win",
    "wore": "wear",
    "wrote": "write",
    # -ing words that are not progressives; map to themselves.
    "anything": "anything",
    "during": "during",
    "evening": "evening",
    "everything": "everything",
    "king": "king",
    "morning": "morning",
    "nothing": "nothing",
    "ring": "ring",
    "something": "something",
    "spring": "spring",
    "string": "string",
    "thing": "thing",
    # -ed words that are not past forms.
    "hundred": "hundred",
    "indeed": "indeed",
    "naked": "naked",
    "sacred": "sacred",
    "wicked": "wicked",
}

_VOWELS = set("aeiou")


def _vowel_groups(word: str) -> int:
    groups = 0
    previous_vowel = False
    for ch in word:
        is_vowel = ch in _VOWELS or ch == "y"
        if is_vowel and not previous_vowel:
            groups += 1
        previous_vowel = is_vowel
    return groups


def _undouble(stem: str) -> str:
    if (
        len(stem) >= 3
        and stem[-1] == stem[-2]
        and stem[-1] not in _VOWELS
        and stem[-1] not in "lszf"
    ):
        return stem[:-1]
    return stem


def _restore_e(stem: str) -> str:
    # Silent-e restoration for short stems ending consonant-vowel-consonant
    # (mak -> make, hop -> hope); multi-syllable stems are left alone.
    if (
        len(stem) >= 3
        and _vowel_groups(stem) == 1
        and stem[-1] not in _VOWELS
        and stem[-1] not in "wxy"
        and stem[-2] in _VOWELS
        and stem[-3] not in _VOWELS
    ):
        return stem + "e"
    return stem


def _strip_past_or_progressive(token: str, suffix: str) -> str:
    stem = token[: -len(suffix)]
    undoubled = _undouble(stem)
    if undoubled != stem:
        return undoubled
    return _restore_e(stem)


def lemmatize(token: str) -> str:
    """Reduce an inflected lowercase token to a base form.

    Rule-based: irregular table, then plural, progressive and past-tense
    suffix rules. Returns the input unchanged when nothing fires.
    """
    if token in _IRREGULARS:
        return _IRREGULARS[token]
    if len(token) >= 5 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) >= 5 and token.endswith("ied"):
        return token[:-3] + "y"
    if len(token) >= 5 and token.endswith("es") and token[-3] in "sxzo":
        return token[:-2]
    if (
        len(token) >= 5
        and token.endswith("es")
        and (token.endswith("ches") or token.endswith("shes"))
    ):
        return token[:-2]
    if len(token) >= 6 and token.endswith("ing"):
        stem = _strip_past_or_progressive(token, "ing")
        if len(stem) >= 3:
            return stem
        return token
    if len(token) >= 5 and token.endswith("ed"):
        stem = _strip_past_or_progressive(token, "ed")
        if len(stem) >= 3:
            return stem
        return token
    if (
        len(token) >= 4
        and token.endswith("s")
        and not token.endswith("ss")
        and not token.endswith("us")
        and not token.endswith("is")
    ):
        return token[:-1]
    return token
