"""Value classes: constructors, equality, hashing, repr and immutability,
and a cold start that loads neither `dataclasses` nor `inspect`."""

import copy
import inspect
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hullattack
from hullattack.attack import AttackResult
from hullattack.codes import ClosureMatrices, LinearCode, closure_matrices, code_from_rows
from hullattack.equiv import EquivResult, SignedPerm
from hullattack.instances import Instance, generate_instance
from hullattack.lattices import GramRecord, LatticeBasis, RationalOrthogonal
from hullattack.linalg import IntMatrix, RatMatrix, Value
from hullattack.modring import ModMatrix
from hullattack.zlip import ZlipSolution

SRC = Path(hullattack.__file__).resolve().parent.parent

# Each class's constructor parameters, in order, with their defaults.
SIGNATURES = {
    IntMatrix: "(entries)",
    RatMatrix: "(num, den=1)",
    ModMatrix: "(k, cols, entries)",
    LinearCode: "(k, n, gen)",
    ClosureMatrices: "(n, interleave, extended)",
    SignedPerm: "(sigma, signs)",
    EquivResult: "(outcome, perm=None, reason=None)",
    LatticeBasis: "(n, basis, gram_record=None)",
    RationalOrthogonal: "(matrix)",
    ZlipSolution: "(u, k, method)",
    AttackResult: "(o_star, transcript=None, certificate=None)",
    Instance: "(k, n, m, code, l1, l2, o1=None, o2=None, seed=None)",
}


def unannotated(cls) -> str:
    sig = inspect.signature(cls)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params))


@pytest.fixture(scope="module")
def instance():
    return generate_instance(6, 4, 2, seed=3)


def frozen_values(inst):
    return [
        IntMatrix(((1, 2),)),
        RatMatrix(((1, 2),), 3),
        inst.code.gen,
        inst.code,
        closure_matrices(2, 6),
        SignedPerm((1, 0), (1, -1)),
        EquivResult("found", SignedPerm((0,), (1,))),
        inst.l1,
        inst.o1,
        ZlipSolution(IntMatrix(((1,),)), 6, "lll"),
    ]


def test_constructor_signatures():
    assert {cls: unannotated(cls) for cls in SIGNATURES} == SIGNATURES
    assert RatMatrix(((1,),)).den == 1
    assert EquivResult("not_equivalent") == EquivResult(outcome="not_equivalent", perm=None)
    assert AttackResult(RationalOrthogonal(RatMatrix(((1,),)))).transcript == []


def test_frozen_values_refuse_assignment(instance):
    values = frozen_values(instance)
    assert sorted(type(v).__name__ for v in values) == sorted(
        c.__name__ for c in SIGNATURES if c not in (AttackResult, Instance)
    )
    for v in values:
        field = type(v).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(v, field, None)
        with pytest.raises(AttributeError):
            delattr(v, field)
        with pytest.raises(AttributeError):
            v.extra = 1
        assert hash(v) == hash(copy.copy(v))
        assert pickle.loads(pickle.dumps(v)) == v


def test_mutable_values_assign_and_do_not_hash(instance):
    res = AttackResult(instance.o1)
    res.transcript.append({"step": "x"})
    res.certificate = IntMatrix(((1,),))
    inst = copy.copy(instance)
    inst.seed = 99
    assert inst.seed == 99 and instance.seed == 3
    for v in (res, inst):
        with pytest.raises(TypeError):
            hash(v)


def test_equality_and_hash_skip_uncompared_fields(instance):
    lat = instance.l1
    other = LatticeBasis(lat.n, lat.basis, GramRecord(lat.basis))
    assert other == lat and hash(other) == hash(lat)
    assert other.gram_record is not lat.gram_record
    assert LatticeBasis(lat.n, lat.basis) != instance.l2

    c = instance.code
    assert LinearCode(c.k, c.n, c.gen) == c
    assert LinearCode(c.k, c.n, c.gen.transpose()) != c

    o = instance.o1
    a = AttackResult(o, [{"step": "verify", "ok": True}], IntMatrix(((1,),)))
    b = AttackResult(o, [{"step": "verify", "ok": True}])
    assert a == b
    assert a != AttackResult(o)
    assert a != AttackResult(instance.o2, a.transcript)


def test_equality_needs_the_same_class():
    assert IntMatrix(((1,),)) != RatMatrix(((1,),))
    assert IntMatrix(((1,),)) != ((1,),)


def test_repr_omits_gram_record_and_free_gen(instance):
    assert repr(RatMatrix(((1, -2),), 3)) == "RatMatrix(num=((1, -2),), den=3)"
    assert repr(SignedPerm((1, 0), (1, -1))) == "SignedPerm(sigma=(1, 0), signs=(1, -1))"
    lat = instance.l1
    assert repr(lat) == f"LatticeBasis(n={lat.n}, basis={lat.basis!r})"
    c = code_from_rows(3, [[1, 1, 0]])
    assert repr(c) == f"LinearCode(k=3, n=3, gen={c.gen!r})"
    res = AttackResult(instance.o1)
    assert repr(res) == f"AttackResult(o_star={instance.o1!r}, transcript=[], certificate=None)"


def test_every_value_class_shares_the_base():
    assert all(issubclass(cls, Value) for cls in SIGNATURES)


def test_no_generated_code():
    """Every method of every hullattack class was compiled from the
    package's own source files, not exec'd from a generated string."""
    loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "hullattack"]
    sources = {m.__file__ for m in loaded}
    for mod in loaded:
        for cls in vars(mod).values():
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                for fn in vars(cls).values():
                    if isinstance(fn, types.FunctionType):
                        assert fn.__code__.co_filename in sources, (cls, fn)


def test_cold_start_loads_no_dataclasses_or_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import hullattack.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
