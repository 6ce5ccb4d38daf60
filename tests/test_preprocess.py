import numpy as np
import pytest

from memfuse.text import lemmatize, preprocess, tokenize


def test_preprocess_year_and_contraction():
    assert preprocess("I can't believe it was 1995") == "I cannot believe it was that year"


def test_preprocess_decade_and_number():
    assert preprocess("we won 3 games in the 90s") == "we won 0 games in that decade"


def test_preprocess_no_rule_passthrough():
    assert preprocess("a walk in the park") == "a walk in the park"


def test_preprocess_empty():
    assert preprocess("") == ""


@pytest.mark.parametrize(
    "text,expected",
    [
        ("the 1990s were good", "that decade were good"),
        ("back in '90s music", "back in that decade music"),
        ("it's what I won't forget", "it is what I will not forget"),
        ("we're sure they've left, he'll know I'd stay, I'm here",
         "we are sure they have left, he will know I would stay, I am here"),
        ("she didn't say", "she did not say"),
        ("in 2021 we met", "in that year we met"),
        ("chapter 12 page 7", "chapter 0 page 0"),
    ],
)
def test_preprocess_rules(text, expected):
    assert preprocess(text) == expected


def test_preprocess_keeps_possessives():
    assert preprocess("mother's day") == "mother's day"


def test_preprocess_idempotent(rng):
    samples = [
        "I can't believe it was 1995",
        "we won 3 games in the 90s",
        "mother's day in 2004!!",
        "they're n't 1999 2050s",
        "",
        "'90s THROWBACK with 100s of songs",
        # Stacked contractions: each pass of the rules frees one more.
        "I won'tn't go",
        "Can'tn't",
        "it'sn't",
        "they'ren'tn'tn't",
    ]
    for text in samples:
        once = preprocess(text)
        assert preprocess(once) == once
    assert preprocess("I won'tn't go") == "I will not not go"
    assert preprocess("they'ren'tn'tn't") == "they are not not not"


def test_tokenize_basic():
    assert tokenize("Good times!") == ["good", "times", "!"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_possessive_word():
    assert tokenize("mother's day") == ["mother's", "day"]


def test_tokenize_retains_raw_case():
    tokens = tokenize("GOOD Times")
    assert tokens == ["good", "times"]
    assert [t.raw for t in tokens] == ["GOOD", "Times"]


def test_tokenize_punctuation_split():
    assert tokenize("wow... really?!") == ["wow", ".", ".", ".", "really", "?", "!"]


@pytest.mark.parametrize(
    "token,expected",
    [
        ("memories", "memory"),
        ("run", "run"),
        ("felt", "feel"),
        ("games", "game"),
        ("boxes", "box"),
        ("watches", "watch"),
        ("running", "run"),
        ("making", "make"),
        ("hoping", "hope"),
        ("hopping", "hop"),
        ("rolling", "roll"),
        ("feeling", "feel"),
        ("stopped", "stop"),
        ("loved", "love"),
        ("wanted", "want"),
        ("cried", "cry"),
        ("played", "play"),
        ("went", "go"),
        ("children", "child"),
        ("morning", "morning"),
        ("during", "during"),
        ("hundred", "hundred"),
        ("this", "this"),
        ("kiss", "kiss"),
    ],
)
def test_lemmatize(token, expected):
    assert lemmatize(token) == expected


def test_lemmatize_leaves_unknown_tokens(rng):
    for token in ("zorp", "quv", "blen"):
        assert lemmatize(token) == token


def _random_texts(seed: int, n: int) -> list[str]:
    """Seeded strings of letters of both cases, digits, "'" and fragments the rules rewrite.

    "٣" is a non-ASCII digit, which the number rules' digit class matches;
    "’" is an apostrophe the contraction rules do not.
    """
    rng = np.random.default_rng(seed)
    chars = list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789") + [
        "٣", "'", "’", " ", " ", " ", "!",
    ]
    fragments = [
        "the 90s", "The 1990s", "'90s", "1999", "2050s", "٣0s", "12", "can't", "Won't",
        "it's", "THAT'S", "they're", "I'd", "we've", "you'll", "I'm", "n't", "don’t",
        "mother's", " ",
    ]
    texts = []
    for _ in range(n):
        pieces = [
            fragments[rng.integers(len(fragments))] if rng.random() < 0.3
            else chars[rng.integers(len(chars))]
            for _ in range(rng.integers(0, 40))
        ]
        texts.append("".join(pieces))
    return texts


def _every_rule(text: str) -> str:
    """`preprocess` without its guards: every rule, in order, on every text.

    The contraction rules repeat until a pass changes nothing.
    """
    from memfuse.text.preprocess import (
        _DECADE_RE,
        _NUMBER_RE,
        _SUFFIX_CONTRACTIONS,
        _WORD_CONTRACTION_RE,
        _YEAR_RE,
        _replace_word_contraction,
    )

    text = _DECADE_RE.sub("that decade", text)
    text = _YEAR_RE.sub("that year", text)
    text = _NUMBER_RE.sub("0", text)
    while True:
        expanded = _WORD_CONTRACTION_RE.sub(_replace_word_contraction, text)
        for pattern, replacement in _SUFFIX_CONTRACTIONS:
            expanded = pattern.sub(replacement, expanded)
        if expanded == text:
            return text
        text = expanded


def test_guarded_preprocess_equals_every_rule_in_order_on_seeded_texts():
    texts = _random_texts(seed=7, n=2000)
    # The draws reach each guard both ways: rewritten texts with only a "'" or
    # only digits (some of them only "٣"), and texts with neither.
    rewritten = [t for t in texts if _every_rule(t) != t]
    digits = [any(c.isdigit() for c in t) for t in rewritten]
    assert sum("'" in t and not d for t, d in zip(rewritten, digits)) > 20
    assert sum("'" not in t and d for t, d in zip(rewritten, digits)) > 20
    assert any(set(t) & set("0123456789") == set() and "٣" in t for t in rewritten)
    assert sum("'" not in t and not any(c.isdigit() for c in t) for t in texts) > 20
    for text in texts:
        once = preprocess(text)
        assert once == _every_rule(text), text
        assert preprocess(once) == _every_rule(once) == once, text


def test_tokenize_equals_its_finditer_form_on_seeded_texts():
    from memfuse.text.preprocess import _TOKEN_RE

    for text in _random_texts(seed=8, n=2000):
        for source in (text, preprocess(text)):
            tokens = tokenize(source)
            expected = [(m.group(0).lower(), m.group(0)) for m in _TOKEN_RE.finditer(source)]
            assert [(str(t), t.raw) for t in tokens] == expected, source
            assert all(type(t).__name__ == "Token" for t in tokens)
