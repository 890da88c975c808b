"""The record types' value contract: repr, equality and hash, immutability
and pickling.  The reprs are the ones the simplifier digests hash, and
`verify --jobs` workers receive rules by pickle."""

import pickle

import pytest

from strongeq import HTPair, Program, Rule, SEVerdict, SimplifyStep, SimplifyTrace, TupleShape
from strongeq.discovery import DiscoveryReport, Mismatch

R1 = Rule(1, 2, 4)
R2 = Rule(hd=3, ps=0, ng=8)

# each builder makes a fresh value, so equal values are distinct objects
RECORDS = {
    "Rule": (
        lambda: Rule(1, 2, 4),
        "Rule(hd=1, ps=2, ng=4)",
    ),
    "Program": (
        lambda: Program((Rule(1, 2, 4), Rule(3, 0, 8), Rule(1, 2, 4))),
        "Program(rules=(Rule(hd=1, ps=2, ng=4), Rule(hd=3, ps=0, ng=8)))",
    ),
    "HTPair": (
        lambda: HTPair(1, 3),
        "HTPair(x=1, y=3)",
    ),
    "SEVerdict": (
        lambda: SEVerdict(False, HTPair(0, 1)),
        "SEVerdict(equivalent=False, countermodel=HTPair(x=0, y=1))",
    ),
    "TupleShape": (
        lambda: TupleShape(2, 1, 0),
        "TupleShape(k=2, m=1, n=0)",
    ),
    "DiscoveryReport": (
        lambda: DiscoveryReport(
            shape=TupleShape(0, 1, 0),
            atom_count=1,
            total_tuples=7,
            se_positive_count=3,
            condition_positive_count=2,
            mismatch_count=1,
            mismatches=(Mismatch((Rule(1, 1, 0),), True, False),),
            elapsed_ms=0.5,
        ),
        "DiscoveryReport(shape=TupleShape(k=0, m=1, n=0), atom_count=1, total_tuples=7, "
        "se_positive_count=3, condition_positive_count=2, mismatch_count=1, "
        "mismatches=(Mismatch(rules=(Rule(hd=1, ps=1, ng=0),), oracle=True, condition=False),), "
        "elapsed_ms=0.5)",
    ),
    "SimplifyStep": (
        lambda: SimplifyStep("T5-delete", removed=(0,)),
        "SimplifyStep(kind='T5-delete', removed=(0,), kept=(), index=None, produced=None)",
    ),
    "SimplifyTrace": (
        lambda: SimplifyTrace((SimplifyStep("T9-replace", removed=(0, 1), produced=Rule(1, 0, 0)),)),
        "SimplifyTrace(steps=(SimplifyStep(kind='T9-replace', removed=(0, 1), kept=(), "
        "index=None, produced=Rule(hd=1, ps=0, ng=0)),))",
    ),
}

# the first field of each type, in declaration order
FIRST_FIELD = {
    "Rule": "hd",
    "Program": "rules",
    "HTPair": "x",
    "SEVerdict": "equivalent",
    "TupleShape": "k",
    "DiscoveryReport": "shape",
    "SimplifyStep": "kind",
    "SimplifyTrace": "steps",
}

names = pytest.mark.parametrize("name", sorted(RECORDS))


@names
def test_repr_is_the_field_listing(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@names
def test_equal_values_hash_equal(name):
    a, b = RECORDS[name][0](), RECORDS[name][0]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_rule_and_program_hash_their_field_tuples():
    # so sets and dicts of them keep the order they had
    assert hash(R1) == hash((1, 2, 4))
    p = Program((R1, R2))
    assert hash(p) == hash(((R1, R2),))


def test_rule_and_program_differ_from_other_types():
    assert R1 != (1, 2, 4)
    assert Program((R1,)) != (R1,)
    assert R1 != R2 and Program((R1,)) != Program((R2,))


@names
def test_fields_cannot_be_assigned(name):
    value = RECORDS[name][0]()
    with pytest.raises(AttributeError):
        setattr(value, FIRST_FIELD[name], 0)
    assert repr(value) == RECORDS[name][1]


@pytest.mark.parametrize("value", [R1, Program((R1,))], ids=["Rule", "Program"])
def test_fields_cannot_be_deleted_or_added(value):
    field = "hd" if isinstance(value, Rule) else "rules"
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@names
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trips(name, protocol):
    value = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value
    assert repr(back) == repr(value)


def test_program_drops_duplicates_in_order():
    assert Program([R2, R1, R2]).rules == (R2, R1)
    assert Program().rules == ()
