import pickle

import pytest

from mforge import (
    BaseReport,
    ClassSpec,
    CorpusCaps,
    DenseRestrictionReport,
    IsoCertificate,
    LonglineStep,
    MinorWitness,
    NamedMatroid,
    SpikeWitness,
    SuiteReport,
    uniform,
)


def test_result_records_behave_like_the_dataclasses_they_replace():
    iso = IsoCertificate((1, 0))
    frozen = [
        (iso, "IsoCertificate(mapping=(1, 0))"),
        (MinorWitness(1, 2, iso),
         "MinorWitness(contract=1, delete=2, iso=IsoCertificate(mapping=(1, 0)))"),
        (LonglineStep("dense-contraction"), "LonglineStep(kind='dense-contraction', line=None)"),
        (SpikeWitness("additive", 5, (1, 1), 3, 4),
         "SpikeWitness(group='additive', q=5, alphas=(1, 1), beta1=3, beta2=4)"),
        (ClassSpec(line_ell=9),
         "ClassSpec(line_ell=9, spike_ranks=frozenset(), swirl_ranks=frozenset())"),
        (CorpusCaps(), "CorpusCaps(max_ground=64, max_rank=8)"),
    ]
    for rec, text in frozen:
        assert repr(rec) == text
        twin = eval(text)
        assert twin == rec and hash(twin) == hash(rec) and twin is not rec
        assert pickle.loads(pickle.dumps(rec)) == rec
        first = text.split("(", 1)[1].split("=", 1)[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(rec, first, None)
    assert hash(iso) == hash(((1, 0),))
    assert iso != (1, 0) and iso != LonglineStep((1, 0))
    assert LonglineStep("x") != LonglineStep("x", 3)
    assert CorpusCaps(max_rank=3) == CorpusCaps(64, 3) != CorpusCaps()

    # ClassSpec coerces rank collections to frozensets and validates them
    spec = ClassSpec(10, [5, 5])
    assert spec.spike_ranks == frozenset({5}) and spec.exclusions() == [("line", 12), ("spike", 5)]
    assert spec == ClassSpec(line_ell=10, spike_ranks=frozenset({5}))
    for bad in ({}, {"line_ell": 1}, {"swirl_ranks": {2}}, {"spike_ranks": {10**6 + 1}}):
        with pytest.raises(ValueError):
            ClassSpec(**bad)
    # the top of the bound is accepted (constructed only, eventual_base not run)
    top = ClassSpec(spike_ranks={10**6}, swirl_ranks={10**6})
    assert top.exclusions() == [("spike", 10**6), ("swirl", 10**6)]

    # NamedMatroid: its own repr, field equality, a fresh meta dict each time
    m = uniform(2, 4).matroid
    a, b = NamedMatroid(m, "U(2,4)"), NamedMatroid(m, "U(2,4)")
    assert repr(a) == "<NamedMatroid U(2,4) n=4>" and a.n == 4
    assert a == b and a.meta == {} and a.meta is not b.meta
    assert a != NamedMatroid(m, "U(2,4)", {"k": 1})
    with pytest.raises(TypeError):
        hash(a)  # meta is a dict

    # reports refuse assignment like every record; a list or dict field
    # keeps them unhashable
    rep = DenseRestrictionReport(7, [(1, "cocircuit")], None, 2, False, True)
    assert repr(rep) == ("DenseRestrictionReport(restriction=7, trace=[(1, 'cocircuit')], "
                         "final=None, final_rank=2, final_dense=False, hypothesis_holds=True)")
    assert rep == DenseRestrictionReport(7, [(1, "cocircuit")], None, 2, False, True)
    assert rep != DenseRestrictionReport(7, [], None, 2, False, True)
    base = BaseReport(9, True, {}, [])
    assert repr(base) == "BaseReport(base=9, certified=True, blocking={}, gaps=[])"
    assert base == BaseReport(base=9, certified=True, blocking={}, gaps=[])
    suite = SuiteReport("kung", 0, True, [], 5)
    assert repr(suite) == "SuiteReport(suite='kung', seed=0, passed=True, cases=[], elapsed_ms=5)"
    for rec in (rep, base, suite):
        assert pickle.loads(pickle.dumps(rec)) == rec
        for name in rec.__slots__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(rec, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(rec, name)
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)

    # constructor signatures: positional or keyword, required fields enforced
    with pytest.raises(TypeError, match="missing"):
        MinorWitness(1, 2)
    with pytest.raises(TypeError, match="unexpected keyword"):
        LonglineStep("x", width=3)
    with pytest.raises(TypeError, match="multiple values"):
        LonglineStep("x", kind="y")
    with pytest.raises(TypeError, match="takes .*arguments"):
        LonglineStep("x", 1, 2)
