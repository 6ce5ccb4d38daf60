import math

import pytest

from memfuse.text import RuleScorer
from memfuse.text.preprocess import preprocess, tokenize


@pytest.fixture
def scorer():
    return RuleScorer(valences={"good": 1.9, "bad": -2.0, "happy": 2.4, "awful": -2.9})


def test_empty_text_is_neutral(scorer):
    s = scorer.score("")
    assert s.as_tuple() == (0.0, 1.0, 0.0, 0.0)


def test_punctuation_only_is_neutral(scorer):
    assert scorer.score("!!! ...").as_tuple() == (0.0, 1.0, 0.0, 0.0)


def test_negation_hand_value(scorer):
    # "not good": 1.9 * -0.74 = -1.406, compound -1.406/sqrt(1.406^2+15)
    s = scorer.score("not good")
    expected = -1.406 / math.sqrt(1.406**2 + 15.0)
    assert s.compound == pytest.approx(expected, abs=1e-9)
    assert s.compound == pytest.approx(-0.341, abs=5e-4)


def test_exclamation_monotone(scorer):
    assert scorer.score("good!!").compound > scorer.score("good").compound


def test_exclamation_caps_at_three(scorer):
    assert (
        scorer.score("good!!!").compound == scorer.score("good!!!!!!").compound
    )


def test_booster_amplifies(scorer):
    assert scorer.score("very good").compound > scorer.score("good").compound


def test_dampener_attenuates(scorer):
    assert scorer.score("slightly good").compound < scorer.score("good").compound


def test_booster_distance_decay(scorer):
    near = scorer.score("very good").compound
    far = scorer.score("very nice day good").compound
    assert 0 < far < near


def test_caps_emphasis_in_mixed_case(scorer):
    mixed = scorer.score("it was GOOD today")
    plain = scorer.score("it was good today")
    assert mixed.compound > plain.compound


def test_all_caps_document_gets_no_emphasis(scorer):
    shouting = scorer.score("IT WAS GOOD TODAY")
    plain = scorer.score("it was good today")
    assert shouting.compound == pytest.approx(plain.compound)


def test_proportions_sum_to_one(scorer):
    s = scorer.score("good bad days and awful happy nights")
    assert s.negative + s.neutral + s.positive == pytest.approx(1.0)
    assert s.negative > 0 and s.positive > 0


def test_contraction_feeds_negation(scorer):
    # Preprocessing expands "isn't" to "is not", which then negates.
    assert scorer.score("it isn't good").compound < 0


def test_compound_bounded(scorer):
    s = scorer.score("happy happy happy good good good" + "!" * 3)
    assert -1.0 <= s.compound <= 1.0


def test_score_tokens_matches_score(scorer):
    text = "NOT so good, but really happy!!!"
    assert scorer.score_tokens(tokenize(preprocess(text))) == scorer.score(text)
