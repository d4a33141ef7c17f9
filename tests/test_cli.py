"""Command-line interface: exit codes and machine-readable output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sl2unitals import hatsearch
from sl2unitals.cli import main
from sl2unitals.hatsearch import SearchResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    machine = {}
    for line in captured.out.splitlines():
        if line.startswith("@"):
            key, _, value = line[1:].partition(" ")
            machine[key] = value
    return code, machine, captured


class TestVerify:
    def test_catalog_entry(self, capsys):
        code, machine, _ = run(capsys, "verify", "wu")
        assert code == 0
        assert machine["points"] == "504"
        assert machine["blocks"] == "3647"
        assert machine["short"] == "567"
        assert machine["status"] == "pass"

    def test_all_entries_pass(self, capsys):
        for name in ("classical8", "ou", "pu"):
            code, machine, _ = run(capsys, "verify", name)
            assert code == 0 and machine["status"] == "pass"

    def test_tampered_file_fails_semantically(self, capsys, tmp_path):
        code, _, _ = run(capsys, "export", "wu", str(tmp_path / "wu.unital"))
        assert code == 0
        text = (tmp_path / "wu.unital").read_text()
        # swap one base element for another valid matrix: parses, breaks (P)
        bad = text.replace("0 2 5 4", "0 2 5 7", 1)
        (tmp_path / "bad.unital").write_text(bad)
        code, machine, _ = run(capsys, "verify", str(tmp_path / "bad.unital"))
        assert code == 1
        assert machine["status"] == "fail"

    def test_unparseable_file_is_input_error(self, capsys, tmp_path):
        header = ["unital v1", "q 8", "modulus 11"]
        for text, line in [
            (header + ["D 1 : nope"], 4),
            (["unital v1", "q"], 2),
            (["unital v1", "q eight"], 2),
            (["unital v1", "q 8", "modulus"], 3),
            (header + ["name"], 4),
            (header + ["parallelism"], 4),
            (header + ["S set 1 0 0 1"], 4),
            (["unital v1", "modulus 11", "q 6"], 3),
            (["unital v1", "q 8", "# field", "modulus 15"], 4),
            (["unital v1", "q 4", "modulus -7"], 3),
            (["unital v1", "q 0", "modulus 11"], 2),
            (["unital v1", "q -8", "modulus 11"], 2),
            (["unital v1", "q 8", "modulus 1\udcff"], 3),  # byte 0xff: not UTF-8
            (["unital v1", "q 32", "modulus 37"], 2),
        ]:
            data = ("\n".join(text) + "\n").encode("utf-8", "surrogateescape")
            (tmp_path / "junk.unital").write_bytes(data)
            code, _, captured = run(capsys, "verify", str(tmp_path / "junk.unital"))
            assert code == 2
            assert captured.err.startswith(f"error: line {line}:")
        assert "GB" in captured.err  # q 32 states the memory it would need

    def test_field_flags_must_match_the_input(self, capsys, tmp_path):
        path = tmp_path / "wu.unital"
        assert run(capsys, "export", "wu", str(path))[0] == 0
        for flags, source, named in [
            (["--q", "4", "--modulus", "7"], str(path), "--q 4"),
            (["--modulus", "13"], str(path), "--modulus 13"),
            (["--q", "4"], "wu", "--q 4"),
        ]:
            code, _, captured = run(capsys, *flags, "aut", source)
            assert code == 2
            assert named in captured.err and captured.out == ""
        for source in ("wu", str(path)):
            code, machine, _ = run(capsys, "--q", "8", "--modulus", "11", "aut", source)
            assert code == 0 and machine["stabilizer"] == "18"

    def test_missing_source_is_input_error(self, capsys):
        code, _, _ = run(capsys, "verify", "no-such-thing")
        assert code == 2

    def test_machine_format_only_emits_at_lines(self, capsys):
        code, _, captured = run(capsys, "--format", "machine", "verify", "ou")
        assert code == 0
        assert all(l.startswith("@") for l in captured.out.splitlines() if l)

    def test_threads_flag_same_output(self, capsys):
        _, serial, _ = run(capsys, "verify", "pu")
        _, threaded, _ = run(capsys, "--threads", "3", "verify", "pu")
        assert serial == threaded


class TestAdmissibility:
    """(Q) and (P) are decided once per input system, and every command
    reports a failure with the same base number and element."""

    @pytest.fixture
    def broken(self, capsys, tmp_path):
        assert run(capsys, "export", "wu", str(tmp_path / "wu.unital"))[0] == 0
        lines = (tmp_path / "wu.unital").read_text().splitlines()
        subgroup = next(l for l in lines if l.startswith("S set ")).removeprefix("S set ")
        d5 = next(l for l in lines if l.startswith("D 5 ")).split(":", 1)[1]
        out = {}
        # D 2 becomes the subgroup, which has too few quotients for (Q); D 6
        # becomes a copy of D 5, whose quotients then cover elements twice
        for kind, old, new in (("Q", "D 2 ", f"D 2 : {subgroup}"), ("P", "D 6 ", f"D 6 :{d5}")):
            path = tmp_path / f"{kind}.unital"
            path.write_text("\n".join(new if l.startswith(old) else l for l in lines) + "\n")
            out[kind] = str(path)
        return out

    def test_every_command_names_the_same_failure(self, capsys, tmp_path, broken):
        for kind, expected in (("Q", "condition (Q) fails for base 2"), ("P", "condition (P) fails: ")):
            code, machine, captured = run(capsys, "verify", broken[kind])
            assert code == 1 and machine[f"condition-{kind}"] == "fail" and machine["status"] == "fail"
            [message] = [l for l in captured.out.splitlines() if l.startswith("condition (")]
            assert message.startswith(expected)
            for argv in (["aut"], ["onan"], ["close", "flat", str(tmp_path / "closed.unital")]):
                code, _, captured = run(capsys, argv[0], broken[kind], *argv[1:])
                assert code == 1, argv
                assert captured.err == f"failure: {message}\n"
        assert message == "condition (P) fails: element index 11 is doubly-covered"

    @pytest.mark.parametrize(
        "argv,gathers",
        [
            (["verify", "wu"], 1),
            (["aut", "wu"], 1),
            (["onan", "wu"], 1),
            (["close", "wu", "flat", "CLOSED"], 1),
            (["iso", "wu", "wu"], 2),
            (["export", "wu", "CLOSED"], 0),
        ],
    )
    def test_one_quotient_gather_per_input(self, capsys, tmp_path, monkeypatch, argv, gathers):
        from sl2unitals import design

        calls = []
        gather = design._quotient_flags
        monkeypatch.setattr(design, "_quotient_flags", lambda *a: calls.append(1) or gather(*a))
        argv = [str(tmp_path / "closed.unital") if a == "CLOSED" else a for a in argv]
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == gathers


class TestAut:
    @pytest.mark.parametrize(
        "name,stab,label,full,index",
        [
            ("classical8", "54", "C9:C6", "27216", "1"),
            ("wu", "18", "C3:C6", "9072", "3"),
            ("ou", "27", "C9:C3", "13608", "2"),
            ("pu", "27", "C9:C3", "13608", "2"),
        ],
    )
    def test_groups(self, capsys, name, stab, label, full, index):
        code, machine, _ = run(capsys, "aut", name)
        assert code == 0
        assert machine["stabilizer"] == stab
        assert machine["structure"] == label
        assert machine["full"] == full
        assert machine["index"] == index

    def test_rewritten_file_is_rebuilt(self, capsys, tmp_path):
        path = tmp_path / "system.unital"
        for name, stab in (("wu", "18"), ("classical8", "54")):
            assert run(capsys, "export", name, str(path))[0] == 0
            code, machine, _ = run(capsys, "aut", str(path))
            assert code == 0 and machine["stabilizer"] == stab


class TestIso:
    def test_ou_pu_not_isomorphic(self, capsys):
        code, machine, _ = run(capsys, "iso", "ou", "pu")
        assert code == 1
        assert machine["isomorphic"] == "no"

    def test_self_isomorphic(self, capsys):
        code, machine, _ = run(capsys, "iso", "wu", "wu")
        assert code == 0
        assert machine["isomorphic"] == "yes"

    def test_closed_comparison(self, capsys):
        code, machine, _ = run(capsys, "iso", "wu", "wu", "--closed", "flat", "natural")
        assert code == 1
        assert machine["isomorphic"] == "no"
        code, machine, _ = run(capsys, "iso", "wu", "wu", "--closed", "flat", "flat")
        assert code == 0


class TestOnan:
    def test_classical_none_found(self, capsys):
        code, machine, _ = run(capsys, "onan", "classical8")
        assert code == 0
        assert machine["found"] == "no"

    def test_expect_found_flag(self, capsys):
        code, _, _ = run(capsys, "onan", "classical8", "--expect-found")
        assert code == 1
        code, machine, _ = run(capsys, "onan", "wu", "--expect-found")
        assert code == 0
        assert machine["found"] == "yes"

    def test_count_through(self, capsys):
        code, machine, _ = run(capsys, "onan", "wu", "--count-through", "1,0,0,1")
        assert code == 0
        assert int(machine["count"]) > 0
        assert machine["complete"] == "yes"

    def test_count_budget_exhaustion(self, capsys):
        code, machine, _ = run(
            capsys, "onan", "wu", "--count-through", "1,0,0,1", "--budget", "100"
        )
        assert code == 3
        assert machine["complete"] == "no"

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--count-through", "1,2"], "--count-through"),
            (["--count-through", "9,0,0,1"], "--count-through"),
            (["--count-through=-7,0,0,1"], "--count-through"),
            (["--count-through", "1,0,0,1", "--budget", "-5"], "--budget"),
            (["--count-through", "1,0,0,1", "--budget", "0"], "--budget"),
            (["--budget", "5"], "--budget"),
        ],
    )
    def test_bad_count_flags_are_input_errors(self, capsys, flags, named):
        code, _, captured = run(capsys, "onan", "wu", *flags)
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err


class TestCloseExport:
    def test_close_then_verify(self, capsys, tmp_path):
        out = tmp_path / "wu-natural.unital"
        code, machine, _ = run(capsys, "close", "wu", "natural", str(out))
        assert code == 0
        assert machine["points"] == "513"
        assert machine["blocks"] == "3648"
        code, machine, _ = run(capsys, "verify", str(out))
        assert code == 0
        assert machine["closed-points"] == "513"
        assert machine["closed-check-lambda1"] == "pass"

    def test_export_reparses_identically(self, capsys, tmp_path):
        out = tmp_path / "ou.unital"
        code, _, _ = run(capsys, "export", "ou", str(out))
        assert code == 0
        from sl2unitals import catalog

        system, meta = catalog.parse(out.read_text())
        assert meta["name"] == "ou"
        assert catalog.serialize(system, name="ou") == out.read_text()


class TestSearch:
    def test_search_command_with_budget(self, capsys, tmp_path):
        config = {
            "q": 8,
            "constraints": [
                {"generators": [{"conjugator": "g3"}], "mode": "stabilize"},
                {
                    "generators": [{"conjugator": "one", "frob": 1}],
                    "mode": "orbits",
                    "orbit_shape": [3, 3],
                },
            ],
            "candidate_limit": 400,
        }
        cfg_path = tmp_path / "search.json"
        cfg_path.write_text(json.dumps(config))
        code, machine, _ = run(
            capsys, "search", str(cfg_path), "--out", str(tmp_path / "results")
        )
        # limited candidate budget: partial result, exit 3, manifest present
        assert code == 3
        assert machine["complete"] == "no"
        assert "config-hash" in machine
        assert "elapsed-ms" in machine
        assert int(machine["candidates"]) == 400

    def searched_config(self, capsys, tmp_path, monkeypatch, spec, *flags):
        """The SearchConfig that the command builds from the spec and flags."""
        seen = []
        monkeypatch.setattr(
            hatsearch, "search", lambda cfg: seen.append(cfg) or SearchResult([], True)
        )
        path = tmp_path / "search.json"
        path.write_text(json.dumps(spec))
        assert run(capsys, *flags, "search", str(path), "--out", str(tmp_path))[0] == 0
        return seen[0]

    def test_config_branches_applies(self, capsys, tmp_path, monkeypatch):
        spec = {"q": 4, "torus": [1, 2], "branches": 2}
        assert self.searched_config(capsys, tmp_path, monkeypatch, spec).branches == 2
        cfg = self.searched_config(capsys, tmp_path, monkeypatch, spec, "--threads", "3")
        assert cfg.branches == 3

    def test_config_method_applies(self, capsys, tmp_path, monkeypatch):
        spec = {"q": 4, "torus": [1, 2], "method": "generic"}
        assert self.searched_config(capsys, tmp_path, monkeypatch, spec).method == "generic"

    def test_bad_config_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, "search", str(p))
        assert code == 2

    def test_non_utf8_config_is_named(self, capsys, tmp_path):
        p = tmp_path / "binary.json"
        p.write_bytes(b'{"q": 4,\n "torus": [1, 2],\n "\xff": 1}\n')
        code, _, captured = run(capsys, "search", str(p))
        assert code == 2
        assert captured.err.startswith(f"error: search config {p}: line 3:")

    def test_malformed_config_is_input_error(self, capsys, tmp_path):
        q4 = {"q": 4, "torus": [1, 2]}
        frob = {"generators": [{"conjugator": "one", "frob": 1}], "mode": "stabilize"}
        p = tmp_path / "config.json"
        for spec, key, *flags in [
            ({"q": "8"}, "'q'"),
            (dict(q4, candidate_limit="5"), "'candidate_limit'"),
            ([1, 2], "top level"),
            (dict(q4, constraints=[{"generators": []}]), "'mode'"),
            (dict(q4, dedup="nope"), "dedup"),
            (dict(q4, method="nope"), "method"),
            (dict(q4, candiate_limit=5), "'candiate_limit'"),
            (dict(q4, constraints=[dict(frob, orbit=[3])]), "'orbit'"),
            (dict(q4, constraints=[dict(frob, generators=[{"frobenius": 1}])]), "'frobenius'"),
            (dict(q4, candidate_limit=-3), "candidate_limit"),
            (dict(q4, node_budget=-1), "node_budget"),
            (dict(q4, branches=0), "branches"),
            (dict(q4, time_budget_sec=-1), "time_budget_sec"),
            (q4, "time_budget_sec", "--budget-sec", "-1"),
            (q4, "branches", "--threads", "0"),
        ]:
            p.write_text(json.dumps(spec))
            code, _, captured = run(capsys, *flags, "search", str(p), "--out", str(tmp_path))
            assert code == 2, (spec, flags)
            assert key in captured.err and "Traceback" not in captured.out + captured.err

    def test_stage_timings_are_machine_lines(self, capsys, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"q": 4, "torus": [1, 2]}))
        counters = []
        for _ in range(2):
            code, machine, captured = run(capsys, "search", str(p), "--out", str(tmp_path))
            assert code == 0
            lines = captured.out.splitlines()
            stages = [l.split()[1:] for l in lines if l.startswith("@stage-ms ")]
            assert [name for name, _ in stages] == ["enumerate", "cover", "verify"]
            assert all(ms.isdigit() for _, ms in stages)
            keys = [l.split()[0] for l in lines if l.startswith("@")]
            last_stage = len(keys) - keys[::-1].index("@stage-ms")
            assert keys[last_stage : last_stage + 2] == ["@enumerate-nodes", "@cover-nodes"]
            assert machine["enumerate-nodes"].isdigit() and machine["cover-nodes"].isdigit()
            counters.append((machine["enumerate-nodes"], machine["cover-nodes"]))
        assert counters[0] == counters[1]

    def test_identity_stabilize_constraint(self, capsys, tmp_path):
        plain = {"q": 4, "torus": [1, 2]}
        identity = dict(
            plain, constraints=[{"mode": "stabilize", "generators": [{"conjugator": "one"}]}]
        )
        p = tmp_path / "config.json"
        seen = []
        for spec in (plain, identity):
            p.write_text(json.dumps(spec))
            code, machine, _ = run(capsys, "search", str(p), "--out", str(tmp_path))
            assert code == 0
            seen.append((machine["solutions"], machine["candidates"]))
        assert seen[0] == seen[1]
        p.write_text(json.dumps(dict(identity, method="structured")))
        code, _, captured = run(capsys, "search", str(p), "--out", str(tmp_path))
        assert code == 2 and "stabilize" in captured.err and "Traceback" not in captured.err

    def test_g_is_named_over_the_catalog_field_only(self, capsys, tmp_path):
        p = tmp_path / "config.json"
        for spec, name in (({"q": 4}, "g"), ({"q": 8, "modulus": 13}, "g3")):
            gens = [{"conjugator": name}]
            p.write_text(json.dumps(dict(spec, constraints=[{"generators": gens, "mode": "stabilize"}])))
            code, _, captured = run(capsys, "search", str(p), "--out", str(tmp_path))
            assert code == 2 and f"unknown named conjugator {name!r}" in captured.err

    def test_field_flags_must_match_the_config(self, capsys, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"q": 4, "torus": [1, 2]}))
        code, _, captured = run(capsys, "--q", "8", "search", str(p), "--out", str(tmp_path))
        assert code == 2 and "--q 8" in captured.err and "q 4" in captured.err


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """Files for the exit-code table: wu with one base element changed,
    so it parses but breaks (P), and three search configs."""
    root = tmp_path_factory.mktemp("contract")
    assert main(["--format", "machine", "export", "wu", str(root / "wu.unital")]) == 0
    text = (root / "wu.unital").read_text()
    (root / "broken-p.unital").write_text(text.replace("0 2 5 4", "0 2 5 7", 1))
    (root / "q4.json").write_text(json.dumps({"q": 4, "torus": [1, 2]}))
    limited = {"q": 4, "torus": [1, 2], "candidate_limit": 5}
    (root / "q4-limit.json").write_text(json.dumps(limited))
    (root / "broken.json").write_text("{not json")
    return root


#: Every subcommand with each exit code it can give: 0 pass, 1 semantic
#: failure, 2 input error, 3 budget exhausted.  "{dir}" is the directory of
#: ``contract_inputs``.
EXIT_CODES = [
    ("verify", ["verify", "wu"], 0),
    ("verify", ["verify", "{dir}/broken-p.unital"], 1),
    ("verify", ["verify", "{dir}/missing.unital"], 2),
    ("aut", ["aut", "wu"], 0),
    ("aut", ["aut", "{dir}/broken-p.unital"], 1),
    ("aut", ["--q", "4", "aut", "wu"], 2),
    ("iso", ["iso", "wu", "wu"], 0),
    ("iso", ["iso", "ou", "pu"], 1),
    ("iso", ["iso", "wu", "wu", "--closed", "flat", "natural"], 1),
    ("iso", ["iso", "wu", "{dir}/missing.unital"], 2),
    ("onan", ["onan", "wu"], 0),
    ("onan", ["onan", "classical8", "--expect-found"], 1),
    ("onan", ["onan", "{dir}/broken-p.unital"], 1),
    ("onan", ["onan", "wu", "--count-through", "1,0,0,1", "--budget", "0"], 2),
    ("onan", ["onan", "wu", "--count-through", "1,0,0,1", "--budget", "100"], 3),
    ("close", ["close", "wu", "natural", "{dir}/wu-natural.unital"], 0),
    ("close", ["close", "{dir}/broken-p.unital", "flat", "{dir}/out.unital"], 1),
    ("close", ["close", "wu", "natural", "{dir}/no-such-dir/out.unital"], 2),
    ("search", ["search", "{dir}/q4.json", "--out", "{dir}/found"], 0),
    ("search", ["search", "{dir}/broken.json"], 2),
    ("search", ["search", "{dir}/q4-limit.json", "--out", "{dir}/found"], 3),
    ("export", ["export", "pu", "{dir}/pu.unital"], 0),
    ("export", ["export", "nope", "{dir}/nope.unital"], 2),
]


@pytest.mark.parametrize(
    "command,argv,code", EXIT_CODES, ids=[f"{c}-{code}" for c, _, code in EXIT_CODES]
)
def test_exit_code_contract(capsys, contract_inputs, command, argv, code):
    argv = [a.format(dir=contract_inputs) for a in argv]
    got, _, captured = run(capsys, "--format", "machine", *argv)
    assert got == code
    if code == 2:
        assert captured.out == "" and captured.err.startswith("error: ")
    else:
        # a semantic failure is reported on stdout, or as one "failure:" line
        assert captured.err == "" or (code == 1 and captured.err.startswith("failure: "))


#: Runs two commands in one fresh interpreter and prints, after each, which
#: of the modules that only some commands need it has loaded.
_LOADED_AFTER = """
import json, sys
from sl2unitals.cli import main
watched = ["sl2unitals.hatsearch", "sl2unitals.morphisms", "sl2unitals.onan",
           "concurrent.futures"]
seen = {}
for argv in (["verify", "wu"], ["search", sys.argv[1], "--out", sys.argv[2]]):
    assert main(["--format", "machine", *argv]) == 0
    seen[argv[0]] = [m for m in watched if m in sys.modules]
print(json.dumps(seen))
"""


def _fresh_python(*argv) -> subprocess.CompletedProcess:
    """Run ``python -c`` in a new process that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", *argv], env=env, capture_output=True, text=True, check=True
    )


def test_commands_import_only_what_they_run(tmp_path):
    config = tmp_path / "search.json"
    config.write_text(json.dumps({"q": 4, "torus": [1, 2]}))
    proc = _fresh_python(_LOADED_AFTER, str(config), str(tmp_path))
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["verify"] == []
    assert "sl2unitals.hatsearch" in seen["search"]
    assert "concurrent.futures" not in seen["search"]  # one branch starts no pool


def test_verify_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call in a process (tens of ms)
    proc = _fresh_python(
        "import sys; from sl2unitals.cli import main; main(['verify', 'wu']); "
        "print('numpy.ma' in sys.modules)"
    )
    assert proc.stdout.splitlines()[-1] == "False"
