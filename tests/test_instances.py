"""Instance generation and serialization."""

import hashlib
import json

import pytest

from hullattack.cli import main as cli_main
from hullattack.errors import BadModulus, ParseError
from hullattack.instances import Instance, generate_instance
from hullattack.lattices import construction_a, rotate
from oracles import lattice_equal


class TestGenerate:
    def test_deterministic(self):
        a = generate_instance(5, 4, 2, seed=7)
        b = generate_instance(5, 4, 2, seed=7)
        assert a.to_dict() == b.to_dict()
        c = generate_instance(5, 4, 2, seed=8)
        assert a.to_dict() != c.to_dict()

    def test_secrets_explain_the_publics(self):
        inst = generate_instance(6, 5, 2, seed=3)
        base = construction_a(inst.code)
        assert lattice_equal(rotate(base, inst.o1), inst.l1)
        assert lattice_equal(rotate(base, inst.o2), inst.l2)

    def test_default_depth_mixes(self):
        inst = generate_instance(3, 4, 2, seed=1)
        # Not the unrotated construction lattice (depth 2n of mixing).
        assert not lattice_equal(construction_a(inst.code), inst.l1) or not lattice_equal(
            construction_a(inst.code), inst.l2
        )

    def test_rejects_bad_modulus(self):
        with pytest.raises(BadModulus):
            generate_instance(4, 4, 2, seed=1)
        with pytest.raises(BadModulus):
            generate_instance(1, 4, 2, seed=1)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            generate_instance(5, 4, 0, seed=1)
        with pytest.raises(ValueError):
            generate_instance(5, 4, 5, seed=1)


class TestSerialization:
    def test_round_trip_with_secret(self):
        inst = generate_instance(3, 4, 2, seed=11)
        again = Instance.from_dict(json.loads(json.dumps(inst.to_dict())))
        assert again.to_dict() == inst.to_dict()
        assert again.o1 == inst.o1
        assert again.seed == 11

    def test_round_trip_public_only(self):
        inst = generate_instance(3, 4, 2, seed=11)
        pub = inst.to_dict(include_secret=False)
        assert "secret" not in pub
        again = Instance.from_dict(pub)
        assert again.o1 is None
        assert lattice_equal(again.l1, inst.l1)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            Instance.from_dict({"k": 3})
        inst = generate_instance(3, 4, 2, seed=11).to_dict()
        inst["secret"] = {"O1": inst["secret"]["O1"]}
        with pytest.raises(ParseError):
            Instance.from_dict(inst)

    @pytest.mark.parametrize("field", ["k", "n", "m"])
    @pytest.mark.parametrize("value", [5.9, "3", True])
    def test_shape_must_be_a_json_integer(self, field, value):
        inst = generate_instance(5, 4, 2, seed=11).to_dict()
        inst[field] = value
        with pytest.raises(ParseError, match=repr(field)):
            Instance.from_dict(inst)


    @pytest.mark.parametrize("value", [True, "12", 2.9])
    def test_seed_must_be_a_json_integer(self, value):
        inst = generate_instance(3, 4, 2, seed=11).to_dict()
        inst["secret"]["seed"] = value
        with pytest.raises(ParseError, match="'seed'"):
            Instance.from_dict(inst)

    @pytest.mark.parametrize("field,value", [("k", 11), ("n", 7)])
    def test_declared_shape_must_match_the_code_and_lattices(self, field, value):
        inst = generate_instance(3, 4, 2, seed=11).to_dict()
        inst[field] = value
        with pytest.raises(ParseError, match="does not match"):
            Instance.from_dict(inst)
        # The code agrees with a wrong declaration, the lattices do not.
        if field == "n":
            inst["code"] = {"k": 3, "n": 7, "gen": {"k": 3, "rows": 0, "cols": 7, "entries": []}}
            with pytest.raises(ParseError, match="does not match"):
                Instance.from_dict(inst)

    @pytest.mark.parametrize("m", [0, -1, 5, 9])
    def test_declared_rank_must_lie_in_one_to_n(self, m):
        inst = generate_instance(3, 4, 2, seed=11).to_dict()
        inst["m"] = m
        with pytest.raises(ParseError, match="outside 1..4"):
            Instance.from_dict(inst)

    @pytest.mark.parametrize("name", ["O1", "O2"])
    def test_secret_rotation_must_match_the_dimension(self, name):
        inst = generate_instance(3, 4, 2, seed=11).to_dict()
        inst["secret"][name] = generate_instance(3, 3, 2, seed=11).to_dict()["secret"][name]
        with pytest.raises(ParseError, match="not 4"):
            Instance.from_dict(inst)

# sha256 of the `hullattack gen` file bytes, recorded from the generator
# that multiplied full Givens matrices entry by entry in Fractions.
# (k, n, m, seed, depth or None for the default 2n, digest)
GEN_DIGESTS = [
    (2, 8, 4, 1, None, "63b40e2effaa7f4274125f2bdb8bbc5af3178f67d47c398c0281413fa6ce1359"),
    (3, 8, 3, 2, None, "dc04db081d2611755e9647485bd87d2b7730a21f943f5e429016e44e3d51d4b3"),
    (5, 12, 6, 1, None, "4b45550d712c97d7aea4a43a6104721651d2e6a99eb764352fe2317f66eadea9"),
    (9, 12, 6, 2, None, "e1c39e661478d9515937bc93a9859b6976dc0f2c32960a6d8de9589ca2e51610"),
    (10, 12, 6, 1, None, "07fb6c815d06b1dde35df1d54c2587cd4614659d50058a360762fa1bb372a221"),
    (5, 12, 6, 3, 0, "00314ee799c9ea39f1d9d73132ba8915104f5853dbeac52bc4e6a16520b35700"),
    (5, 12, 6, 3, 1, "588dae1a73f82c45ba95dd799772f308350035700650c40a5867057e3e43164e"),
    (15, 12, 6, 4, 40, "79545eeba46d4062cf66c0912d20bf58bba15ab29e285e375fc413857871da9c"),
    (15, 16, 8, 1, None, "32a5eb79e80875e91c42c883058667c6b458edcd77cd3382f0218d55ca953d94"),
    (15, 20, 10, 1, None, "8b9e95b3efa8196af5fd9d1056e786f894c161852ad15fa2ab04fec2532a4c4b"),
    (6, 24, 12, 1, None, "bf7b271fa739fde540f2375d97597f97490524dba81dc2cb22364727d8bc3ea9"),
    (3, 32, 16, 1, None, "569da903bf717c36bc5cbbf888ff0865ce62dadbbcd3bd2c19bbaa84fb220270"),
]


@pytest.mark.parametrize("k,n,m,seed,depth,digest", GEN_DIGESTS)
def test_gen_bytes_match_recorded_digest(tmp_path, k, n, m, seed, depth, digest):
    out = tmp_path / "inst.json"
    argv = ["gen", "--k", str(k), "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", str(out)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    assert cli_main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
