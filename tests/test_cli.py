"""CLI behavior: file formats, exit codes, determinism."""

import copy
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullattack import equiv, instances
from hullattack.attack import hull_attack
from hullattack.cli import main
from hullattack.codes import code_from_rows
from hullattack.instances import generate_instance
from hullattack.lattices import MAX_DEPTH_PER_DIM, construction_a
from oracles import random_rational_orthogonal_by_columns


def run_cli(*argv) -> int:
    return main(list(argv))


def read(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Files that once escaped as tracebacks: invalid UTF-8 (UnicodeDecodeError),
# nesting deeper than the JSON decoder's recursion limit (RecursionError)
# and an integer past the int-to-str digit limit (ValueError).
HOSTILE_FILES = {
    "invalid_utf8": b"\xff\xfe{}",
    "deep_nesting": b"[" * 200_000 + b"]" * 200_000,
    "huge_integer": b'{"public": ' + b"1" * 5000 + b"}",
}


@pytest.fixture(params=sorted(HOSTILE_FILES))
def hostile_file(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_bytes(HOSTILE_FILES[request.param])
    return path


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run_cli("gen", "--k", "5", "--n", "5", "--m", "2", "--seed", "9", "--out", str(path)) == 0
    return path


class TestGen:
    def test_writes_byte_identical_files_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--k", "3", "--n", "4", "--m", "2", "--seed", "5"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_instance_file_shape(self, instance_file):
        d = read(instance_file)
        assert d["k"] == 5 and d["n"] == 5 and d["m"] == 2
        assert set(d["public"]) == {"L1", "L2"}
        assert set(d["secret"]) == {"O1", "O2", "seed"}

    def test_bad_modulus_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run_cli("gen", "--k", "4", "--n", "4", "--m", "2", "--seed", "1", "--out", str(out)) == 2
        assert "not divisible by 4" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_rank_is_input_error(self, tmp_path):
        out = tmp_path / "x.json"
        assert run_cli("gen", "--k", "5", "--n", "4", "--m", "9", "--seed", "1", "--out", str(out)) == 2

    def test_negative_depth_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        args = ["gen", "--k", "3", "--n", "4", "--m", "2", "--seed", "5", "--depth", "-3"]
        assert run_cli(*args, "--out", str(out)) == 2
        assert "depth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, m, depth", [(8, 4, 8000), (4, 2, 3000), (4, 2, 4 * MAX_DEPTH_PER_DIM + 1)])
    def test_depth_past_64n_is_input_error(self, tmp_path, n, m, depth):
        # At these depths an entry of O (n = 8), or of the witness an
        # attack would compose from two of them (n = 4), passes the
        # interpreter's int-to-str digit limit.
        out = tmp_path / "x.json"
        args = ["gen", "--k", "3", "--n", str(n), "--m", str(m), "--seed", "1", "--depth", str(depth)]
        proc = subprocess.run(
            [sys.executable, "-m", "hullattack.cli", *args, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "depth" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_depth_64n_attacks_and_verifies(self, tmp_path):
        inst, res = tmp_path / "inst.json", tmp_path / "res.json"
        args = ["gen", "--k", "3", "--n", "4", "--m", "2", "--seed", "1"]
        assert run_cli(*args, "--depth", str(4 * MAX_DEPTH_PER_DIM), "--out", str(inst)) == 0
        assert run_cli("attack", "--in", str(inst), "--out", str(res)) == 0
        assert run_cli("verify", "--instance", str(inst), "--result", str(res)) == 0

    def test_depth_flag_changes_rotations(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--k", "3", "--n", "4", "--m", "2", "--seed", "5", "--out", str(a))
        run_cli("gen", "--k", "3", "--n", "4", "--m", "2", "--seed", "5", "--depth", "3", "--out", str(b))
        assert read(a)["secret"]["O1"] != read(b)["secret"]["O1"]


class TestAttack:
    def test_attack_and_verify(self, instance_file, tmp_path):
        res = tmp_path / "res.json"
        assert run_cli("attack", "--in", str(instance_file), "--out", str(res)) == 0
        d = read(res)
        assert d["verified"] is True
        assert any(e["step"] == "verify" and e["ok"] for e in d["transcript"])
        assert run_cli("verify", "--instance", str(instance_file), "--result", str(res)) == 0

    def test_supplied_k_matches_recovery(self, instance_file, tmp_path):
        auto, manual = tmp_path / "auto.json", tmp_path / "manual.json"
        assert run_cli("attack", "--in", str(instance_file), "--out", str(auto)) == 0
        assert run_cli("attack", "--in", str(instance_file), "--k", "5", "--out", str(manual)) == 0
        assert read(auto)["o_star"] == read(manual)["o_star"]

    def test_stdout_when_no_out(self, instance_file, capsys):
        assert run_cli("attack", "--in", str(instance_file)) == 0
        out = capsys.readouterr().out
        assert '"o_star"' in out

    def test_ignores_file_modulus_metadata(self, instance_file, tmp_path):
        # Corrupt the metadata; the attack recovers k from the lattices.
        d = read(instance_file)
        d["k"] = 999
        lying = tmp_path / "lying.json"
        lying.write_text(json.dumps(d))
        res = tmp_path / "res.json"
        assert run_cli("attack", "--in", str(lying), "--out", str(res)) == 0
        mod = next(e for e in read(res)["transcript"] if e["step"] == "modulus")
        assert mod["k"] == 5

    def test_wrong_supplied_k_fails_with_transcript(self, instance_file, tmp_path):
        res = tmp_path / "res.json"
        assert run_cli("attack", "--in", str(instance_file), "--k", "7", "--out", str(res)) == 3
        d = read(res)
        assert d["error"]["type"] == "HullNotTrivial"
        assert isinstance(d["transcript"], list)

    def test_gi_node_budget_fails_with_exit_three(self, instance_file, tmp_path, monkeypatch):
        monkeypatch.setattr(equiv, "GI_NODE_BUDGET", 1)
        res = tmp_path / "res.json"
        assert run_cli("attack", "--in", str(instance_file), "--out", str(res)) == 3
        d = read(res)
        assert d["error"]["type"] == "SpepFailed"
        assert "exceeded 1 nodes" in d["error"]["message"]
        assert [e["step"] for e in d["transcript"]][-1] == "codes"

    def test_unwritable_witness_is_input_error(self, tmp_path, monkeypatch):
        # Depth 3000 at (3, 4, 2), by the unbounded column-list generator:
        # O's entries fit the int-to-str digit limit, and o_star's, with
        # about twice the digits, do not.
        monkeypatch.setattr(instances, "random_rational_orthogonal", random_rational_orthogonal_by_columns)
        path, res = tmp_path / "deep.json", tmp_path / "res.json"
        path.write_text(json.dumps(generate_instance(3, 4, 2, seed=1, depth=3000).to_dict()))
        proc = subprocess.run(
            [sys.executable, "-m", "hullattack.cli", "attack", "--in", str(path), "--out", str(res)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: verified witness cannot be written")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not res.exists()

    def test_k_multiple_of_four_is_input_error(self, instance_file):
        assert run_cli("attack", "--in", str(instance_file), "--k", "8") == 2

    def test_non_lcd_instance_fails(self, tmp_path):
        lat = construction_a(code_from_rows(5, [[1, 2, 0], [0, 0, 1]]))
        d = {"public": {"L1": lat.to_dict(), "L2": lat.to_dict()}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        res = tmp_path / "res.json"
        assert run_cli("attack", "--in", str(path), "--out", str(res)) == 3
        assert read(res)["error"]["type"] in ("HullNotTrivial", "NoCandidate")

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("attack", "--in", str(tmp_path / "nope.json")) == 2

    def test_malformed_json_is_input_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run_cli("attack", "--in", str(path)) == 2

    def test_missing_public_is_input_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run_cli("attack", "--in", str(path)) == 2

    def test_hostile_file_is_input_error(self, hostile_file, capsys):
        assert run_cli("attack", "--in", str(hostile_file)) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_singular_lattice_is_input_error(self, instance_file, tmp_path):
        d = read(instance_file)
        entries = d["public"]["L1"]["entries"]
        entries[5:10] = entries[0:5]  # row 2 repeats row 1 (n = 5)
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(d))
        proc = subprocess.run(
            [sys.executable, "-m", "hullattack.cli", "attack", "--in", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "dependent" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field", ["n", "rows", "cols"])
    def test_non_integer_shape_is_input_error(self, instance_file, tmp_path, capsys, field):
        d = read(instance_file)
        d["public"]["L1"][field] = 5.5
        path = tmp_path / "float.json"
        path.write_text(json.dumps(d))
        assert run_cli("attack", "--in", str(path)) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_boolean_entries_are_input_error(self, instance_file, tmp_path):
        d = read(instance_file)
        identity = [i % 6 == 0 for i in range(25)]  # read as the identity lattice once
        d["public"]["L1"] = {"n": 5, "rows": 5, "cols": 5, "entries": identity}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(d))
        proc = subprocess.run(
            [sys.executable, "-m", "hullattack.cli", "attack", "--in", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "True" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "entry, message",
        [(None, "None"), ([1], "[1]"), ({"p": 1}, "{'p': 1}"), (float("inf"), "Infinity")],
        ids=["null", "list", "object", "infinity"],
    )
    def test_non_number_entry_is_input_error(self, instance_file, tmp_path, entry, message):
        d = read(instance_file)
        d["public"]["L1"]["entries"][0] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(d))
        proc = subprocess.run(
            [sys.executable, "-m", "hullattack.cli", "attack", "--in", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "bad rational entry: " in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestVerify:
    def test_tampered_witness_fails(self, instance_file, tmp_path):
        res = tmp_path / "res.json"
        run_cli("attack", "--in", str(instance_file), "--out", str(res))
        d = read(res)
        d["o_star"]["entries"][0] = "2"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(d))
        assert run_cli("verify", "--instance", str(instance_file), "--result", str(tampered)) == 4

    def test_swapped_instance_fails(self, instance_file, tmp_path):
        res = tmp_path / "res.json"
        run_cli("attack", "--in", str(instance_file), "--out", str(res))
        other = tmp_path / "other.json"
        run_cli("gen", "--k", "3", "--n", "5", "--m", "2", "--seed", "77", "--out", str(other))
        assert run_cli("verify", "--instance", str(other), "--result", str(res)) == 4

    def test_failed_result_file_fails_verification(self, instance_file, tmp_path):
        res = tmp_path / "failed.json"
        run_cli("attack", "--in", str(instance_file), "--k", "7", "--out", str(res))
        assert run_cli("verify", "--instance", str(instance_file), "--result", str(res)) == 4

    def test_result_without_o_star_is_input_error(self, instance_file, tmp_path):
        res = tmp_path / "res.json"
        res.write_text("{}")
        assert run_cli("verify", "--instance", str(instance_file), "--result", str(res)) == 2

    def test_hostile_file_is_input_error(self, instance_file, hostile_file, tmp_path):
        res = tmp_path / "res.json"
        run_cli("attack", "--in", str(instance_file), "--out", str(res))
        assert run_cli("verify", "--instance", str(hostile_file), "--result", str(res)) == 2
        assert run_cli("verify", "--instance", str(instance_file), "--result", str(hostile_file)) == 2


@lru_cache(maxsize=None)
def verify_files() -> tuple[dict, dict]:
    """An instance (k = 5, n = 5, m = 2) and its attack's result, as JSON."""
    inst = generate_instance(5, 5, 2, seed=9)
    return inst.to_dict(), hull_attack(inst.l1, inst.l2).to_dict()


# JSON values a hostile file may put anywhere: null, booleans, strings that
# are no number or divide by zero, NaN and infinities, huge integers (as
# numbers, and as a string past the int-to-str digit limit), containers.
JUNK = st.sampled_from(
    [None, True, False, "1/0", "x", "", float("nan"), float("inf"), 10**1000, -(10**600),
     "9" * 5000, 0, -1, 1.5, "3/4", [], {}, [[1]]]
)
MATRICES = [("instance", "public", "L1"), ("instance", "public", "L2"), ("result", "o_star")]


@st.composite
def mutations(draw):
    """One to three edits of the verify inputs: a block, field or entry
    replaced by junk or an integer, a field removed, a shape made wrong,
    or L1's second row made a copy of its first."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(MATRICES))
        kind = draw(st.sampled_from(["block", "field", "entry", "delete", "shape", "singular"]))
        if kind == "block":
            edits.append((kind, where[: draw(st.integers(2, len(where)))], draw(JUNK)))
        elif kind in ("field", "delete"):
            key = draw(st.sampled_from(["n", "rows", "cols", "entries"]))
            edits.append((kind, where + (key,), draw(JUNK | st.integers(-2, 30))))
        elif kind == "entry":
            value = draw(JUNK | st.integers(-(10**40), 10**40) | st.sampled_from(["2", "-1/3"]))
            edits.append((kind, where, (draw(st.integers(0, 24)), value)))
        elif kind == "shape":
            edits.append((kind, where, draw(st.sampled_from(["drop", "append", "grow", "square"]))))
        else:
            edits.append((kind, ("instance", "public", "L1"), None))
    return edits


def apply_edit(files: dict, edit) -> None:
    """Apply one edit in place; an edit whose target is no longer an
    object or a list of entries is skipped.  The junk is copied, so no
    container is shared between two places."""
    kind, path, arg = copy.deepcopy(edit)
    node = files
    for key in path[:-1]:
        if not isinstance(node, dict) or key not in node:
            return
        node = node[key]
    if not isinstance(node, dict):
        return
    last = path[-1]
    if kind in ("block", "field"):
        node[last] = arg
    elif kind == "delete":
        node.pop(last, None)
    elif not isinstance(node.get(last), dict):
        return
    else:
        m = node[last]
        entries = m.get("entries")
        if not isinstance(entries, list):
            return
        if kind == "entry" and entries:
            entries[arg[0] % len(entries)] = arg[1]
        elif kind == "shape":
            if arg == "drop" and entries:
                entries.pop()
            elif arg == "append":
                entries.append("0")
            elif arg == "grow":
                m["n"] = m.get("n", 0) + 1 if isinstance(m.get("n"), int) else 1
            else:
                m["rows"], m["cols"] = len(entries), 1
        elif kind == "singular" and isinstance(m.get("cols"), int) and len(entries) >= 2 * m["cols"]:
            c = m["cols"]
            entries[c : 2 * c] = entries[:c]


class TestVerifyFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutations())
    def test_mutated_inputs_exit_cleanly(self, tmp_path_factory, edits):
        inst, res = verify_files()
        files = {"instance": copy.deepcopy(inst), "result": copy.deepcopy(res)}
        for edit in edits:
            apply_edit(files, edit)
        folder = tmp_path_factory.mktemp("verify")
        paths = {}
        for name, d in files.items():
            paths[name] = folder / f"{name}.json"
            paths[name].write_text(json.dumps(d))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run_cli(
                "verify", "--instance", str(paths["instance"]), "--result", str(paths["result"])
            )
        assert code in (0, 2, 4)
        assert "Traceback" not in err.getvalue()


class TestSelftest:
    def test_quick_level_passes(self, capsys):
        assert run_cli("selftest", "--level", "quick") == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hullattack.cli", "gen", "--k", "3", "--n", "3",
             "--m", "1", "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hullattack.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "hullattack" in proc.stdout
