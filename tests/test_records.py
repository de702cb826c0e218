"""What every frozen record of the package promises: its repr, value equality and
hash, immutability, construction by position, keyword and default, and the
rejections its constructor raises. These hold whatever builds the records."""

import pickle

import pytest

from seedsense.alignments import Alignment, DetectionStrategy, ScoringScheme, Seed
from seedsense.sampling import McEstimate
from seedsense.search import RankedSeed, RankedSeeds, SearchSpec
from seedsense.selfcheck import CheckResult
from seedsense.sensitivity import SensitivityQuery, SensitivityReport

SEED = Seed("1101")
STRATEGY = DetectionStrategy(SEED, 2, 1)

# each record type: its fields in order with one valid value each, one field with
# another valid value, and the repr of the record built from the first values
CASES = [
    (ScoringScheme, {"match_score": 2, "mismatch_penalty": 5}, {"mismatch_penalty": 3},
     "ScoringScheme(match_score=2, mismatch_penalty=5)"),
    (Alignment, {"length": 4, "bits": 11}, {"bits": 13}, "Alignment(length=4, bits=11)"),
    (Seed, {"pattern": "1101"}, {"pattern": "1011"}, "Seed(pattern='1101')"),
    (DetectionStrategy, {"seed": SEED, "required_occurrences": 2, "max_overlap": 1},
     {"max_overlap": 0},
     "DetectionStrategy(seed=Seed(pattern='1101'), required_occurrences=2, max_overlap=1)"),
    (SensitivityQuery, {"strategy": STRATEGY, "scheme": ScoringScheme(), "length": 40,
                        "score": 12, "model": "all"}, {"score": 0},
     "SensitivityQuery(strategy=DetectionStrategy(seed=Seed(pattern='1101'), "
     "required_occurrences=2, max_overlap=1), scheme=ScoringScheme(match_score=1, "
     "mismatch_penalty=3), length=40, score=12, model='all')"),
    (SensitivityReport, {"numerator": 3, "denominator": 7}, {"denominator": 8},
     "SensitivityReport(numerator=3, denominator=7)"),
    (McEstimate, {"samples": 300, "hits": 41}, {"hits": 40},
     "McEstimate(samples=300, hits=41)"),
    (SearchSpec, {"weight": 6, "max_span": 10, "scheme": ScoringScheme(1, 1), "length": 40,
                  "score": 12, "model": "homogeneous", "top_k": 3}, {"top_k": 4},
     "SearchSpec(weight=6, max_span=10, scheme=ScoringScheme(match_score=1, "
     "mismatch_penalty=1), length=40, score=12, model='homogeneous', top_k=3)"),
    (RankedSeed, {"seed": SEED, "numerator": 5, "denominator": 9}, {"numerator": 4},
     "RankedSeed(seed=Seed(pattern='1101'), numerator=5, denominator=9)"),
    (RankedSeeds, {"entries": (RankedSeed(SEED, 5, 9),), "candidate_count": 651},
     {"candidate_count": 650},
     "RankedSeeds(entries=(RankedSeed(seed=Seed(pattern='1101'), numerator=5, "
     "denominator=9),), candidate_count=651)"),
    (CheckResult, {"name": "score-partition", "passed": True, "detail": "lengths to 9"},
     {"passed": False},
     "CheckResult(name='score-partition', passed=True, detail='lengths to 9')"),
]
IDS = [case[0].__name__ for case in CASES]
# the records whose str is their own; every other record prints as its repr
STR = {Seed: "1101", Alignment: "1101"}


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
class TestEveryRecord:
    def test_repr(self, cls, fields, other, text):
        record = cls(*fields.values())
        assert repr(record) == text
        assert f"{record}" == str(record) == STR.get(cls, text)

    def test_positional_and_keyword_construction(self, cls, fields, other, text):
        positional = cls(*fields.values())
        keyword = cls(**fields)
        assert positional == keyword
        for name, value in fields.items():
            assert getattr(positional, name) == value
            assert getattr(keyword, name) == value
        with pytest.raises(TypeError):
            cls(*fields.values(), None)
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)

    def test_value_equality_and_hash(self, cls, fields, other, text):
        record = cls(*fields.values())
        twin = cls(**fields)
        assert record is not twin
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert {record: "found"}[twin] == "found"
        moved = cls(**{**fields, **other})
        assert record != moved and not record == moved

    def test_unequal_to_its_values_as_a_tuple(self, cls, fields, other, text):
        record = cls(*fields.values())
        values = tuple(fields.values())
        assert record != values and values != record
        assert not record == values and not values == record
        assert record not in [values] and values not in [record]

    def test_assignment_raises(self, cls, fields, other, text):
        record = cls(*fields.values())
        for name, value in {**fields, **other}.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert record == cls(*fields.values())

    def test_pickles_to_an_equal_record(self, cls, fields, other, text):
        record = cls(*fields.values())
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is cls and repr(copy) == text


def test_records_of_different_types_with_equal_values_are_unequal():
    for group in ([ScoringScheme(3, 7), Alignment(3, 7), SensitivityReport(3, 7),
                   McEstimate(3, 7), RankedSeeds(3, 7)],
                  [DetectionStrategy(SEED, 2, 1), RankedSeed(SEED, 2, 1),
                   CheckResult(SEED, 2, 1)]):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert a != b and b != a and not a == b, (a, b)


def test_defaults():
    assert ScoringScheme() == ScoringScheme(1, 3) == ScoringScheme(mismatch_penalty=3)
    assert ScoringScheme(2) == ScoringScheme(2, 3)
    assert DetectionStrategy(SEED) == DetectionStrategy(SEED, 1, 0)
    assert DetectionStrategy(SEED, max_overlap=2) == DetectionStrategy(SEED, 1, 2)
    query = SensitivityQuery(STRATEGY, ScoringScheme(), 40, 12)
    assert query.model == "homogeneous"
    spec = SearchSpec(6, 10, ScoringScheme(), 40, 12)
    assert (spec.model, spec.top_k) == ("homogeneous", 10)
    assert SearchSpec(6, 10, ScoringScheme(), 40, 12, top_k=3).model == "homogeneous"
    for cls in (Alignment, Seed, DetectionStrategy, SensitivityQuery, SensitivityReport,
                McEstimate, SearchSpec, RankedSeed, RankedSeeds, CheckResult):
        with pytest.raises(TypeError):
            cls()


REJECTIONS = [
    (lambda: ScoringScheme(0, 3), "match_score must be a positive integer"),
    (lambda: ScoringScheme(-1), "match_score must be a positive integer"),
    (lambda: ScoringScheme(1, 0), "mismatch_penalty must be a positive integer"),
    (lambda: ScoringScheme(mismatch_penalty=-2), "mismatch_penalty must be a positive integer"),
    (lambda: Alignment(0, 0), "alignment length must be >= 1"),
    (lambda: Alignment(3, 8), "bits out of range for the given length"),
    (lambda: Alignment(length=3, bits=-1), "bits out of range for the given length"),
    (lambda: Seed(""), "seed must be a nonempty 0/1 string, got ''"),
    (lambda: Seed("1021"), "seed must be a nonempty 0/1 string, got '1021'"),
    (lambda: Seed(pattern="0110"), "seed pattern must start and end with '1'"),
    (lambda: Seed("110"), "seed pattern must start and end with '1'"),
    (lambda: DetectionStrategy(SEED, 0), "required_occurrences must be >= 1"),
    (lambda: DetectionStrategy(SEED, max_overlap=4), r"max_overlap must be in \[0, span - 1\]"),
    (lambda: DetectionStrategy(SEED, 1, -1), r"max_overlap must be in \[0, span - 1\]"),
    (lambda: SensitivityQuery(STRATEGY, ScoringScheme(), 0, 12), "length must be >= 1"),
    (lambda: SensitivityQuery(STRATEGY, ScoringScheme(), 40, 12, "markov"),
     "model must be one of"),
    (lambda: SensitivityQuery(STRATEGY, ScoringScheme(), 40, 0),
     "homogeneous alignments require score >= 1"),
    (lambda: SensitivityReport(5, 3), "need 0 <= numerator <= denominator"),
    (lambda: SensitivityReport(numerator=-1, denominator=3), "need 0 <= numerator <= denominator"),
    (lambda: SearchSpec(1, 10, ScoringScheme(), 40, 12), "weight must be >= 2"),
    (lambda: SearchSpec(6, 5, ScoringScheme(), 40, 12), "max_span must be >= weight"),
    (lambda: SearchSpec(6, 10, ScoringScheme(), 40, 12, "markov"), "model must be one of"),
    (lambda: SearchSpec(6, 10, ScoringScheme(), 40, 0),
     "homogeneous alignments require score >= 1"),
    (lambda: SearchSpec(6, 10, ScoringScheme(), 40, 12, top_k=0), "top_k must be >= 1"),
]


@pytest.mark.parametrize("build, message", REJECTIONS)
def test_constructor_rejections(build, message):
    with pytest.raises(ValueError, match=message):
        build()
