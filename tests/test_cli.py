import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auslab.cli import (
    GroupSpecError,
    _scan_job,
    build_group,
    canonical_payload_bytes,
    main,
    make_envelope,
    parse_group,
    run_scan,
    scan_csv_text,
)
from auslab.quiver import QuiverA
from auslab.symmetry import CapExceededError, FiniteGroup, build_subgroup, dihedral_group, rotation, subgroup_keys
from reference import adjacency_matrix, orbit_walk, xi, xi_star


def test_parse_group_basic():
    spec = parse_group("rot(1)")
    assert spec.terms == [("rot", 1)]
    gens = spec.elaborate(3)
    assert gens == [rotation(QuiverA(3), 1)]


def test_parse_group_dihedral_generators():
    spec = parse_group("rot(1),refl(0)")
    from auslab.symmetry import generate_group

    assert generate_group(spec.elaborate(4)).element_key_set() == dihedral_group(QuiverA(4)).element_key_set()


def test_parse_group_scalar():
    spec = parse_group("scalar(2;1,1,1;1,1,1)")
    gens = spec.elaborate(3)
    assert len(gens) == 1
    assert all(c == Fraction(-1) for c in xi(gens[0]) + xi_star(gens[0]))


def test_parse_group_whitespace_insensitive():
    a = parse_group(" rot( 2 ) ,  refl(1) ")
    b = parse_group("rot(2),refl(1)")
    assert a.terms == b.terms


def test_parse_group_round_trip():
    for text in ("rot(1)", "rot(1),refl(0)", "scalar(4;1,1,1;3,3,3)", "refl(2),rot(3)"):
        spec = parse_group(text)
        assert parse_group(spec.canonical()).canonical() == spec.canonical()
        assert spec.canonical() == text


def test_parse_group_errors_carry_offsets():
    with pytest.raises(GroupSpecError) as exc:
        parse_group("rot(1), spin(2)")
    assert exc.value.offset == 8
    with pytest.raises(GroupSpecError):
        parse_group("rot(x)")
    with pytest.raises(GroupSpecError):
        parse_group("rot(1) refl(0)")
    with pytest.raises(GroupSpecError):
        parse_group("scalar(0;1;1)")
    # a superscript two is a digit to str.isdigit but not a decimal digit
    with pytest.raises(GroupSpecError):
        parse_group("rot(²)")


def _pad(draw) -> str:
    return "".join(draw(st.lists(st.sampled_from(" \t\n"), max_size=2)))


def _spelled(draw, k: int) -> str:
    """k with a random sign of zero, leading zeros and surrounding whitespace."""
    sign = "-" if k < 0 or (k == 0 and draw(st.booleans())) else ""
    return f"{_pad(draw)}{sign}{'0' * draw(st.integers(0, 2))}{abs(k)}{_pad(draw)}"


@st.composite
def spelled_specs(draw):
    """(text, canonical): a spec of one to three terms spelled with random
    whitespace, leading zeros and -0, and the same spec written plainly."""
    spelled, plain = [], []
    for kind in draw(st.lists(st.sampled_from(["rot", "refl", "scalar"]), min_size=1, max_size=3)):
        if kind == "scalar":
            k = draw(st.integers(1, 4))
            exps = st.lists(st.integers(-12, 12), min_size=k, max_size=k)
            lists = [[draw(st.integers(1, 12))], draw(exps), draw(exps)]
        else:
            lists = [[draw(st.integers(-12, 12))]]
        args = ";".join(",".join(_spelled(draw, x) for x in xs) for xs in lists)
        spelled.append(f"{_pad(draw)}{kind}{_pad(draw)}({args}){_pad(draw)}")
        plain.append(f"{kind}({';'.join(','.join(map(str, xs)) for xs in lists)})")
    return ",".join(spelled), ",".join(plain)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spelled_specs())
def test_a_spec_parses_to_the_terms_of_its_canonical_form(case):
    text, plain = case
    spec = parse_group(text)
    assert spec.canonical() == plain
    assert parse_group(plain).terms == spec.terms


def test_scalar_arity_checked_at_elaboration():
    with pytest.raises(GroupSpecError):
        build_group("scalar(2;1,1;1,1)", 3)
    # the error names the offset of the faulty term, not of the first scalar
    with pytest.raises(GroupSpecError) as exc:
        build_group("scalar(2;1,1,1;1,1,1),scalar(2;1,1;1,1)", 3)
    assert exc.value.offset == 22


def test_cli_usage_error_exit_code():
    assert main(["auslander", "--n", "3"]) == 1  # missing --group
    assert main(["nonsense"]) == 1
    assert main(["--help"]) == 0


def test_cli_auslander(tmp_path, capsys):
    code = main(
        ["auslander", "--n", "3", "--group", "rot(1)", "--degree", "14", "--out", str(tmp_path)]
    )
    assert code == 0
    envelope = json.loads((tmp_path / "auslander_n3.json").read_text())
    payload = envelope["payload"]
    assert payload["verdict_empirical"] == "iso"
    assert payload["classifier_agrees"] is True
    assert payload["pertinency"] == 2
    assert envelope["meta"]["engine"] == "auslab"


def test_cli_hilbert(tmp_path):
    code = main(["hilbert", "--n", "3", "--degree", "8", "--matrix", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "hilbert_n3.json").read_text())["payload"]
    assert payload["totals"] == [3 * (d + 1) for d in range(9)]
    assert payload["recurrence_holds"] is True
    assert payload["matches_inverse_square_series"] is False
    assert payload["matrices"][1] == adjacency_matrix(QuiverA(3))


def test_cli_invariants_with_checks(tmp_path):
    code = main(
        [
            "invariants",
            "--n",
            "4",
            "--group",
            "rot(2),refl(0)",
            "--degree",
            "8",
            "--check-presentation",
            "--check-free-module",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "invariants_n4.json").read_text())["payload"]
    assert payload["dims"] == [2, 2, 4, 4, 6, 6, 8, 8, 10]
    assert payload["presentation"]["target"] == "two_vertex_quiver"
    assert payload["presentation"]["bijective_through"] == 8
    assert payload["free_module_ok_through"] == 8


def test_cli_verify_suites(tmp_path):
    assert main(["verify", "--suite", "structure", "--n", "3", "--degree", "6", "--out", str(tmp_path)]) == 0
    assert main(["verify", "--suite", "relations", "--n", "4", "--degree", "8", "--out", str(tmp_path)]) == 0
    assert main(["verify", "--suite", "orbits", "--n", "4", "--degree", "5", "--out", str(tmp_path)]) == 0
    assert main(["verify", "--suite", "smash", "--n", "3", "--degree", "4", "--out", str(tmp_path)]) == 0


EVERY_COMMAND = [
    (["hilbert", "--n", "3", "--degree", "4"], "hilbert_n3.json"),
    (["invariants", "--n", "3", "--group", "rot(1),refl(0)", "--degree", "4"], "invariants_n3.json"),
    (["auslander", "--n", "3", "--group", "rot(1)", "--degree", "6"], "auslander_n3.json"),
    (["scan", "--n-list", "3", "--all-dihedral-subgroups", "--degree", "4"], "scan.json"),
    (["verify", "--suite", "smash", "--n", "3", "--degree", "3"], "verify_smash_n3.json"),
]


@pytest.mark.parametrize("argv, report", EVERY_COMMAND, ids=[argv[0] for argv, _ in EVERY_COMMAND])
def test_every_command_prints_one_envelope_without_out(tmp_path, capsys, argv, report):
    # without --out stdout is the envelope, whole: its payload hashes to
    # meta.payload_sha256 and equals the payload --out writes
    assert main(argv) == 0
    envelope = json.loads(capsys.readouterr().out)
    payload = envelope["payload"]
    assert envelope["meta"]["payload_sha256"] == hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / report).read_text())["payload"] == payload


@pytest.mark.parametrize("argv, report", EVERY_COMMAND, ids=[argv[0] for argv, _ in EVERY_COMMAND])
def test_an_out_that_cannot_be_made_is_an_error_not_a_traceback(tmp_path, argv, report):
    # --out naming a regular file, or a directory under one, ends in exit 1
    # and a message naming the path
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "out"):
        code, err, _ = _run_capped(argv + ["--out", str(out)])
        assert code == 1 and err.startswith("error:") and str(out) in err and "Traceback" not in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["file"] and not blocker.read_text()


def test_scan_row_count_and_csv():
    payload = run_scan([3], 10)
    from auslab.symmetry import enumerate_subgroups

    assert len(payload["rows"]) == len(enumerate_subgroups(3))
    csv_text = scan_csv_text(payload)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("n,subgroup_descriptor,order,")
    assert len(lines) == len(payload["rows"]) + 1


def test_scan_determinism_small_grid():
    a = run_scan([3, 4], 12)
    b = run_scan([3, 4], 12)
    assert canonical_payload_bytes(a) == canonical_payload_bytes(b)


def test_scan_payload_pinned(scan_run):
    # sha256 of run_scan([3, 4, 5, 6], None) before subgroups were built per job
    digest = hashlib.sha256(canonical_payload_bytes(scan_run["envelope"]["payload"])).hexdigest()
    assert digest == "ed01c8b5c31fabf4be5f9039595a24f9802a788704abe89e4bf26787d3a07e9f"


def test_scan_builds_each_conjugacy_class_once(monkeypatch):
    import auslab.symmetry

    calls = []
    original = auslab.symmetry.generate_group

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(auslab.symmetry, "generate_group", counting)
    payload = run_scan([12], None)
    assert len(payload["rows"]) == 6 + 28  # tau(12) + sigma(12)
    assert len(calls) == 6 + 10  # tau(12) + the sum of gcd(2, d) over d | 12


def test_scan_inconclusive_is_not_disagreement(tmp_path):
    code = main(["scan", "--n-list", "3", "--all-dihedral-subgroups", "--degree", "4", "--out", str(tmp_path)])
    assert code == 0
    rows = json.loads((tmp_path / "scan.json").read_text())["payload"]["rows"]
    unknown = [r for r in rows if r["verdict_empirical"] == "unknown"]
    assert unknown and all(r["agree"] is None for r in unknown)
    assert all(r["agree"] is True for r in rows if r["verdict_empirical"] != "unknown")
    with open(tmp_path / "scan.csv") as fh:
        cells = {r["subgroup_descriptor"]: r["agree"] for r in csv.DictReader(fh)}
    assert all(cells[r["subgroup_descriptor"]] == "" for r in unknown)


def test_auslander_inconclusive_is_not_disagreement(tmp_path):
    code = main(["auslander", "--n", "3", "--group", "rot(1)", "--degree", "2", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "auslander_n3.json").read_text())["payload"]
    assert payload["verdict_empirical"] == "unknown"
    assert payload["verdict_classifier"] == "iso"
    assert payload["classifier_agrees"] is None


def test_cap_exceeded_is_an_error_not_a_traceback(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise CapExceededError("group closure exceeded cap 4096")

    monkeypatch.setattr("auslab.cli.generate_group", refuse)
    assert main(["auslander", "--n", "3", "--group", "rot(1)"]) == 1
    assert "exceeded cap" in capsys.readouterr().err


def test_scan_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        assert main(["scan", "--n-list", "3", "--all-dihedral-subgroups", "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err


def test_scan_rejects_n_below_three(capsys):
    for n in ("0", "-3", "2"):
        assert main(["scan", "--n-list", n, "--all-dihedral-subgroups", "--degree", "2"]) == 1
        assert "n >= 3" in capsys.readouterr().err


def test_scan_pool_clamped_to_cores_and_grid(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    inline = run_scan([3], 4)  # six subgroups in four conjugacy classes
    for cores, jobs in ((4, 1000), (64, 3), (64, 1000), (1, 1000), (None, 8)):
        monkeypatch.setattr("auslab.cli.os.cpu_count", lambda cores=cores: cores)
        assert run_scan([3], 4, jobs=jobs) == inline
    assert started == [4, 3, 4]     # D_3 has four conjugacy classes of subgroups


def test_env_default_degree(tmp_path, monkeypatch):
    monkeypatch.setenv("AUSLAB_DEFAULT_DEGREE", "9")
    code = main(["auslander", "--n", "3", "--group", "rot(1)", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "auslander_n3.json").read_text())["payload"]
    assert payload["degree"] == 9


def test_payload_contains_no_floats(tmp_path):
    main(["auslander", "--n", "3", "--group", "rot(1),refl(0)", "--degree", "12", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "auslander_n3.json").read_text())["payload"]

    def walk(node):
        if isinstance(node, float):
            raise AssertionError(f"float leaked into payload: {node}")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(payload)


def test_scan_worker_pool_matches_inline():
    inline = run_scan([3], 10, jobs=1)
    pooled = run_scan([3], 10, jobs=2)
    assert canonical_payload_bytes(inline) == canonical_payload_bytes(pooled)


@pytest.mark.parametrize(
    "argv, report, digest",
    [
        (
            ["auslander", "--n", "5", "--group", "scalar(7;1,1,1,1,1;6,6,6,6,6)"],
            "auslander_n5.json",
            "5f7385320039daacf6d7dedd26eb825e9fc5c591c20347485f3f4ec6b0a7debf",
        ),
        (
            ["auslander", "--n", "4", "--group", "scalar(4;1,2,3,1;3,2,1,3)"],
            "auslander_n4.json",
            "f0f23061edd8e9dd544be7038d58962d1d1ebd8065abed3b7c892e9239e70103",
        ),
        (
            ["auslander", "--n", "3", "--group", "rot(1),scalar(4;1,1,1;3,3,3)", "--degree", "12"],
            "auslander_n3.json",
            "64b7aad88280bc1cf061474426f9ed4e044efaf4b49bb309d7b4671d231d71f0",
        ),
        (
            ["auslander", "--n", "3", "--group", "rot(1),scalar(2;1,1,1;1,1,1)", "--degree", "14"],
            "auslander_n3.json",
            "83e9c10f8c884e36cdf3d2579c4b921b46ed5d3cfb6ef321d540d32ea24f673c",
        ),
        (
            ["invariants", "--n", "3", "--group", "scalar(3;1,1,1;2,2,2)", "--degree", "8"],
            "invariants_n3.json",
            "3d266e79121c55229fb3a690c6394e63460a46a632c40630c688129b08a11cff",
        ),
        (
            ["auslander", "--n", "3", "--group", "scalar(3;1,1,1;2,2,2),scalar(4;1,1,1;3,3,3)", "--degree", "6"],
            "auslander_n3.json",
            "dbb56eaa59a016fa8075aca242d3cec59718002a09e2e4f4f5b539d735724179",
        ),
        (
            ["auslander", "--n", "4", "--group", "rot(1),refl(0),scalar(5;1,1,1,1;4,4,4,4)", "--degree", "12"],
            "auslander_n4.json",
            "5fbbca9cc851de97c3cde74bcba93a13becf3695f5d245b027c964251ea260ea",
        ),
    ],
)
def test_scalar_payload_pinned(tmp_path, argv, report, digest):
    # sha256 of each payload while scalars were stored as field values; the
    # order-40 mixed group's while its blocks were built by field elimination
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / report).read_text())["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, report, digest",
    [
        (
            ["hilbert", "--n", "4", "--degree", "18", "--matrix"],
            "hilbert_n4.json",
            "9a28822af7ceed6295a7bdd9d84fdb90ab9af86540074f5a7940095f415788cd",
        ),
        (
            ["invariants", "--n", "8", "--group", "rot(1),refl(0)", "--degree", "32"],
            "invariants_n8.json",
            "d305aae7422d73a4d47bffd8d160dc69f7ddbb48c6b7b2906ebb44a96e5fb6a6",
        ),
        (
            ["invariants", "--n", "6", "--group", "rot(2),refl(0)", "--degree", "12",
             "--check-presentation", "--check-free-module"],
            "invariants_n6.json",
            "79975d01ed638905a00cf125452b3af413592c3893804b4a65af86463984aa49",
        ),
        (
            ["invariants", "--n", "6", "--group", "rot(1),refl(0)", "--degree", "12",
             "--check-presentation", "--check-free-module"],
            "invariants_n6.json",
            "e9554361857a8309de94d3152ab9acde91c542803f8f202f5a742262eeecfd4e",
        ),
        (
            ["verify", "--suite", "structure", "--n", "4", "--degree", "10"],
            "verify_structure_n4.json",
            "3a34f9e7c7a359d9635f3f48bbda94c16adbf94ee498ea4d9400b20a4c47db93",
        ),
    ],
)
def test_rings_payload_pinned(tmp_path, argv, report, digest):
    # sha256 of each payload while the oracle merged word by word and
    # invariant bases came from Reynolds averaging
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / report).read_text())["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, report, digest",
    [
        (
            ["auslander", "--n", "16", "--group", "rot(1),refl(0)", "--degree", "68"],
            "auslander_n16.json",
            "4a240d28aa704b9b2bb5caf55d6e06cc944e530d1d74705ca8cc6df2bfd921f1",
        ),
        (
            ["auslander", "--n", "15", "--group", "rot(1),refl(0)", "--degree", "200"],
            "auslander_n15.json",
            "fd53c300a27b66bbcf368e191f4297b87ca17533582a9c9d1d6b360e8ad4dd94",
        ),
        (
            ["scan", "--n-list", "12", "--all-dihedral-subgroups"],
            "scan.json",
            "230caec62e6749078994f46049da614681be9116603ae0676f6004517f73dd57",
        ),
    ],
)
def test_dihedral_payload_pinned(tmp_path, argv, report, digest):
    # sha256 of each payload while every degree of the ideal was built up to
    # the cutoff, before a chain stopped at its first repeated layer
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / report).read_text())["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == digest


class _BlockCoordsBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "argv, report, digest",
    [
        (
            ["auslander", "--n", "16", "--group", "rot(1),refl(0)", "--degree", "68"],
            "auslander_n16.json",
            "4a240d28aa704b9b2bb5caf55d6e06cc944e530d1d74705ca8cc6df2bfd921f1",
        ),
        (
            ["auslander", "--n", "15", "--group", "rot(1),refl(0)"],
            "auslander_n15.json",
            "fe241823662a4d606d7a0604de40073106ff0974aa7dfcb698a92408cf07f459",
        ),
        (
            ["scan", "--n-list", "12", "--all-dihedral-subgroups"],
            "scan.json",
            "230caec62e6749078994f46049da614681be9116603ae0676f6004517f73dd57",
        ),
    ],
)
def test_a_scalar_free_verdict_builds_no_block_coords(monkeypatch, tmp_path, argv, report, digest):
    # a label block reads which runs are empty off a parity mask, so only the
    # coordinate build (a group with scalars) and the block queries lay out
    # a BlockCoords; the payloads are the pinned ones
    import auslab.smash as smash

    def refuse(*args):
        raise _BlockCoordsBuilt

    monkeypatch.setattr(smash.BlockCoords, "__init__", refuse)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / report).read_text())["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == digest
    group, _ = build_group("scalar(7;1,1,1,1,1;6,6,6,6,6)", 5)
    with pytest.raises(_BlockCoordsBuilt):
        smash.auslander_verdict(5, group)


def test_mixed_conductors_embed_into_the_lcm(tmp_path):
    group = "scalar(3;1,1,1;2,2,2),scalar(4;1,1,1;3,3,3)"
    assert main(["auslander", "--n", "3", "--group", group, "--degree", "6", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "auslander_n3.json").read_text())["payload"]
    assert payload["group_order"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--n", "3"],
        ["invariants", "--n", "3", "--group", "rot(1)"],
        ["auslander", "--n", "3", "--group", "rot(1)"],
        ["scan", "--n-list", "3", "--all-dihedral-subgroups"],
        ["verify", "--suite", "smash", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_degree_is_rejected(tmp_path, capsys, monkeypatch, argv):
    out = ["--out", str(tmp_path)]
    assert main(argv + ["--degree", "-1"] + out) == 1
    assert "--degree must be an integer >= 0, got -1" in capsys.readouterr().err
    for bad in ("-2", "abc"):
        monkeypatch.setenv("AUSLAB_DEFAULT_DEGREE", bad)
        assert main(argv + out) == 1
        assert f"AUSLAB_DEFAULT_DEGREE must be an integer >= 0, got {bad}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["auslander", "--n", "3", "--group", "rot(1)"],
        ["scan", "--n-list", "3", "--all-dihedral-subgroups"],
    ],
    ids=lambda argv: argv[0],
)
def test_verdict_needs_a_positive_degree(tmp_path, capsys, monkeypatch, argv):
    out = ["--out", str(tmp_path)]
    assert main(argv + ["--degree", "0"] + out) == 1
    assert "--degree must be at least 1 for a verdict" in capsys.readouterr().err
    monkeypatch.setenv("AUSLAB_DEFAULT_DEGREE", "0")
    assert main(argv + out) == 1
    err = capsys.readouterr().err
    assert "AUSLAB_DEFAULT_DEGREE must be at least 1 for a verdict" in err and "got 0" in err
    assert not list(tmp_path.iterdir())
    monkeypatch.delenv("AUSLAB_DEFAULT_DEGREE")
    assert main(argv + ["--degree", "1"] + out) == 0


@pytest.mark.parametrize(
    "argv",
    [["hilbert", "--n", "3"], ["invariants", "--n", "3", "--group", "rot(1)"]],
    ids=lambda argv: argv[0],
)
def test_series_commands_accept_degree_zero(tmp_path, argv):
    assert main(argv + ["--degree", "0", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "n, group",
    [
        (4, "rot(1)"),
        (4, "refl(0)"),
        (4, "rot(2),refl(1)"),
        (3, "scalar(3;1,1,1;2,2,2)"),
        # D_4 and the vertex-reflection subgroup, each with a scalar generator
        (4, "rot(1),refl(0),scalar(2;1,1,1,1;1,1,1,1)"),
        (4, "refl(0),refl(2),scalar(4;1,1,1,1;3,3,3,3)"),
    ],
)
@pytest.mark.parametrize("check", ["--check-free-module", "--check-presentation"])
def test_structure_checks_need_a_maximal_reflection_group(tmp_path, capsys, n, group, check):
    argv = ["invariants", "--n", str(n), "--group", group, "--degree", "4", check, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "vertex-reflection subgroup only" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "n, group, degree",
    [
        (3, "rot(1),refl(0)", 34),
        (8, "rot(2),refl(0)", 26),
        (40, "rot(1),refl(0)", 16),
        (2238, "rot(2),refl(0)", 0),      # the products behind well_defined run at every degree
        (3000, "rot(1),refl(0)", 0),      # refused before D_3000 would pass the group cap
    ],
)
def test_presentation_check_is_refused_up_front(tmp_path, capsys, n, group, degree):
    from auslab.invariants import PRESENTATION_STEP_LIMIT

    argv = ["invariants", "--n", str(n), "--group", group, "--degree", str(degree), "--check-presentation"]
    started = time.monotonic()
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert f"n = {n} through degree {degree}" in err and f"limit of {PRESENTATION_STEP_LIMIT}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "n, group, degree, target",
    [
        (3, "rot(1),refl(0)", 33, "polynomial_two_vars"),
        (8, "rot(2),refl(0)", 25, "two_vertex_quiver"),
    ],
)
def test_presentation_check_runs_at_the_sizes_its_limit_allows(tmp_path, n, group, degree, target):
    argv = ["invariants", "--n", str(n), "--group", group, "--degree", str(degree), "--check-presentation"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    presentation = json.loads((tmp_path / f"invariants_n{n}.json").read_text())["payload"]["presentation"]
    assert presentation["target"] == target and presentation["bijective_through"] == degree


def test_free_module_check_on_the_full_dihedral_group(tmp_path):
    argv = ["invariants", "--n", "3", "--group", "rot(1),refl(0)", "--degree", "6", "--check-free-module"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "invariants_n3.json").read_text())["payload"]
    assert payload["free_module_ok_through"] == 6


@pytest.mark.parametrize(
    "n, group, degree",
    [
        (440, "rot(1),refl(0)", 12),
        (440, "rot(1),refl(0)", 20),      # the check reads through degree 12 only
        (4096, "rot(2),refl(0)", 4),
        (3000, "rot(1),refl(0)", 12),     # refused before D_3000 would pass the group cap
    ],
)
def test_free_module_check_is_refused_up_front(tmp_path, capsys, n, group, degree):
    from auslab.invariants import FREE_MODULE_TERM_LIMIT

    argv = ["invariants", "--n", str(n), "--group", group, "--degree", str(degree), "--check-free-module"]
    started = time.monotonic()
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert f"free-module check at n = {n} through degree {min(degree, 12)}" in err
    assert f"limit of {FREE_MODULE_TERM_LIMIT}" in err
    assert not list(tmp_path.iterdir())


def test_free_module_check_runs_at_the_size_its_limit_allows(tmp_path):
    argv = ["invariants", "--n", "439", "--group", "rot(1),refl(0)", "--degree", "12", "--check-free-module"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "invariants_n439.json").read_text())["payload"]
    assert payload["free_module_ok_through"] == payload["shift_summand_ok_through"] == 12


def test_oracle_degree_limit_is_checked_up_front(capsys):
    from auslab.preproj import ORACLE_LABEL_LIMIT, RelationIdealOracle

    oracle = RelationIdealOracle(QuiverA(3))
    degree = 408  # the least degree over the limit at n = 3
    assert 2 * 3 * degree * (degree + 1) > ORACLE_LABEL_LIMIT >= 2 * 3 * (degree - 1) * degree
    with pytest.raises(MemoryError):
        oracle.extend(degree)
    assert oracle.built_through() == -1
    assert main(["hilbert", "--n", "3", "--degree", str(degree)]) == 1
    assert "over the oracle's limit" in capsys.readouterr().err


def test_hilbert_runs_past_the_former_word_limit(tmp_path):
    # degree 25 has 3 * 2^25 free words, which the word-count limit refused
    assert main(["hilbert", "--n", "3", "--degree", "25", "--matrix", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "hilbert_n3.json").read_text())["payload"]
    assert payload["totals"] == [3 * (d + 1) for d in range(26)]
    assert payload["recurrence_holds"]


def test_cli_imports_neither_sympy_nor_numpy():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, auslab.cli; print(sorted({'sympy', 'numpy'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "group, target",
    [
        ("rot(3),refl(1)", "polynomial_two_vars"),
        ("refl(3),rot(1)", "polynomial_two_vars"),
        ("refl(0),refl(2)", "two_vertex_quiver"),
        ("refl(2),rot(2)", "two_vertex_quiver"),
    ],
)
def test_presentation_check_accepts_other_spellings(tmp_path, group, target):
    argv = ["invariants", "--n", "4", "--group", group, "--degree", "6", "--check-presentation"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "invariants_n4.json").read_text())["payload"]
    assert payload["presentation"]["target"] == target
    assert payload["presentation"]["bijective_through"] == 6


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_matrix_dims_are_reported_exactly_when_every_element_keeps_parity(tmp_path, n):
    # the parity test reads rot off each element; the oracle moves every
    # vertex by every element of every subgroup of D_n
    for kind, d, j in subgroup_keys(n):
        spec = f"rot({d % n})" + (f",refl({j})" if kind == "dihedral" else "")
        group, _ = build_group(spec, n)
        even = all((g.vertex_image(v) - v) % 2 == 0 for g in group.elements for v in range(n))
        assert main(["invariants", "--n", str(n), "--group", spec, "--degree", "2", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / f"invariants_n{n}.json").read_text())["payload"]
        assert ("matrix_dims" in payload) == even, spec
        assert payload["group_order"] == len(build_subgroup(n, kind, d, j)[1])


@pytest.mark.parametrize("check", [[], ["--check-presentation"]])
def test_invariants_builds_one_group(monkeypatch, tmp_path, check):
    built = []
    init = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(len(args[1]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    argv = ["invariants", "--n", "8", "--group", "rot(1),refl(0)", "--degree", "4"]
    assert main(argv + check + ["--out", str(tmp_path)]) == 0
    assert built == [2]


@pytest.mark.parametrize("n_list", ["", "3,3", "x", "3,,4", "4,3,4", "3.0"])
def test_scan_refuses_a_bad_n_list(tmp_path, capsys, n_list):
    argv = ["scan", "--n-list", n_list, "--all-dihedral-subgroups", "--degree", "2", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--n-list" in err and repr(n_list) in err
    assert not list(tmp_path.iterdir())


def test_hilbert_matrix_size_is_checked_up_front(capsys):
    from auslab.preproj import MATRIX_ENTRY_LIMIT

    started = time.monotonic()
    assert main(["hilbert", "--n", "20000", "--degree", "1"]) == 1
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert "n = 20000" in err and "degree 1" in err
    # degree 0 is bounded too, and the limit sits just above n = 400 at degree 6
    assert main(["hilbert", "--n", "2000", "--degree", "0"]) == 1
    assert 400 * 400 * 7 <= MATRIX_ENTRY_LIMIT < 400 * 400 * 8
    assert main(["hilbert", "--n", "400", "--degree", "7"]) == 1
    assert "n = 400" in capsys.readouterr().err


def test_hilbert_runs_at_the_sizes_the_limits_allow(tmp_path):
    for n, degree in ((400, 6), (20, 157)):
        assert main(["hilbert", "--n", str(n), "--degree", str(degree), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / f"hilbert_n{n}.json").read_text())["payload"]
        assert payload["totals"] == [n * (d + 1) for d in range(degree + 1)]


def test_scan_classifies_each_conjugacy_class_once(monkeypatch):
    import auslab.symmetry

    calls = []
    original = auslab.symmetry.classify_auslander

    def counting(n, group):
        calls.append(n)
        return original(n, group)

    monkeypatch.setattr(auslab.symmetry, "classify_auslander", counting)
    payload = run_scan([12], None)
    assert len(payload["rows"]) == 34
    assert len(calls) == 16


def test_scan_rows_are_each_subgroups_own(monkeypatch):
    # one job per conjugacy class, and every row a class shares is the row
    # its own subgroup's job computes; no two rows share a list
    jobs = []
    monkeypatch.setattr("auslab.cli._scan_job", lambda job: jobs.append(job) or _scan_job(job))
    rows = 0
    for n in range(3, 21):
        payload = run_scan([n], None)["rows"]
        by_label = {row["subgroup_descriptor"]: row for row in payload}
        for kind, d, j in subgroup_keys(n):
            label = build_subgroup(n, kind, d, j)[0]
            assert by_label.pop(label) == _scan_job((n, kind, d, j, 4 * n + 4)), (n, label)
        assert not by_label
        assert len({id(row["identity_component_dims"]) for row in payload}) == len(payload)
        rows += len(payload)
    assert (rows, len(jobs)) == (398, 152)
    assert run_scan([3], 4)["rows"] == sorted(
        (_scan_job((3, *key, 4)) for key in subgroup_keys(3)), key=lambda r: r["subgroup_descriptor"]
    )
    monkeypatch.undo()      # the pool's workers run the module's own _scan_job
    assert run_scan([3, 4, 6], None, jobs=2) == run_scan([3, 4, 6], None)


@pytest.mark.parametrize(
    "n_max, digest",
    [
        (12, "02d26a1fffb596460c3fd73e02ed0625628aa8d145752c064bd446a4ecb285bf"),
        (30, "902cc145f2e1467f25cdad7deaacf846a945068729a4f750646a4c0fa3483f26"),
    ],
)
def test_scan_grid_payload_pinned(n_max, digest):
    # sha256 of each payload while every subgroup ran its own job
    payload = run_scan(list(range(3, n_max + 1)), None)
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == digest


def test_envelope_python_version_is_platforms():
    import platform

    envelope = make_envelope("x", {}, time.monotonic())
    assert envelope["meta"]["python"] == sys.version.split()[0] == platform.python_version()


@pytest.mark.parametrize(
    "n, group, degree, digest",
    [
        ("4", "refl(0),scalar(4;1,2,3,1;3,2,1,3)", "40", "7090da5004c3da3f61e1092114de10dd9779a34f1e2837a61f1cba9ed176a64c"),
        ("5", "scalar(7;1,1,1,1,1;6,6,6,6,6)", "60", "1678bec853fec9ee6186441847a37c1d6c55acb3a99a60beb91d6d047244fe1c"),
        ("6", "rot(2),scalar(6;1,2,3,4,5,0;5,4,3,2,1,0)", "30", "a44242403ae23ce51f3e6e9a1838f7554394c3bf341233e1d6f50106218e1af3"),
        ("3", "rot(1),scalar(4;1,0,0;3,0,0)", "24", "f276fa8a7ce556fed969f431be4ec0d494150415f0924ee85cfe5eeb9787948f"),
    ],
)
def test_scalar_invariants_pinned(tmp_path, n, group, degree, digest):
    # sha256 of each payload while every element's scalar on every monomial
    # was a field value summed arrow by arrow
    assert main(["invariants", "--n", n, "--group", group, "--degree", degree, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"invariants_n{n}.json").read_text())["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == digest


@pytest.mark.parametrize(
    "n, group, degree, digest",
    [
        ("8", "rot(1),refl(0)", "32", "d305aae7422d73a4d47bffd8d160dc69f7ddbb48c6b7b2906ebb44a96e5fb6a6"),
        ("5", "scalar(7;1,1,1,1,1;6,6,6,6,6)", "20", "6663b626b08dc00a91a92a4024abcf30795a2e31d749c03eb789a1be4df8238f"),
        ("3", "rot(0)", "445", "b7db8bd116565b0f32465fdd0d45904beca541e3524c9862db14160c3c52ea0f"),
    ],
)
def test_invariants_pinned(tmp_path, n, group, degree, digest):
    # sha256 of each payload while every basis vector was built as an orbit sum
    assert main(["invariants", "--n", n, "--group", group, "--degree", degree, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"invariants_n{n}.json").read_text())["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == digest


@pytest.mark.parametrize(
    "n, group, degree",
    [
        ("8", "rot(1),refl(0)", "32"),
        ("8", "rot(2),refl(0)", "24"),          # matrix_dims
        ("5", "scalar(7;1,1,1,1,1;6,6,6,6,6)", "20"),
    ],
)
def test_invariants_build_no_field_value_or_orbit_sum(tmp_path, monkeypatch, n, group, degree):
    # dims and matrix_dims are counted: with every field value and algebra
    # element refused, the payload is the same
    argv = ["invariants", "--n", n, "--group", group, "--degree", degree, "--out", str(tmp_path)]
    report = tmp_path / f"invariants_n{n}.json"
    assert main(argv) == 0
    want = json.loads(report.read_text())["payload"]
    report.unlink()

    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr("auslab.scalars.root", refuse)
    monkeypatch.setattr("auslab.symmetry.root", refuse)
    monkeypatch.setattr("auslab.preproj.AlgebraElement.__init__", refuse)
    assert main(argv) == 0
    assert json.loads(report.read_text())["payload"] == want


def test_a_bad_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # the scan never starts when --out names a regular file
    def refuse(*args, **kwargs):
        raise AssertionError("scan ran")

    monkeypatch.setattr("auslab.cli.run_scan", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["scan", "--n-list", "3,4,5", "--all-dihedral-subgroups", "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(blocker) in err


def test_main_leaves_no_parser_for_the_cyclic_collector(tmp_path):
    # the parser is built once per process, so repeated calls of main leave
    # no argparse cycle behind
    import gc

    argv = ["hilbert", "--n", "3", "--degree", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        assert not [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_invariants_size_is_checked_up_front(tmp_path, capsys):
    from auslab.invariants import INVARIANT_TERM_LIMIT

    started = time.monotonic()
    assert main(["invariants", "--n", "20000", "--group", "rot(0)", "--degree", "5", "--out", str(tmp_path)]) == 1
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert "n = 20000" in err and "degree 5" in err and f"limit of {INVARIANT_TERM_LIMIT}" in err
    # the limit sits between degrees 445 and 446 at n = 3
    assert 3 * 446 * 447 // 2 <= INVARIANT_TERM_LIMIT < 3 * 447 * 448 // 2
    assert main(["invariants", "--n", "3", "--group", "rot(1),refl(0)", "--degree", "446", "--out", str(tmp_path)]) == 1
    assert "n = 3 through degree 446" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_invariants_run_at_the_size_the_limit_allows(tmp_path):
    assert main(["invariants", "--n", "3", "--group", "rot(1),refl(0)", "--degree", "445", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "invariants_n3.json").read_text())["payload"]
    assert payload["dims"] == [d // 2 + 1 for d in range(446)]


def test_invariants_at_large_n_classify_in_closed_form(tmp_path):
    # the classifier reads the group's reflections off its elements; building
    # all n reflections of D_n instead took O(n^2) time and memory
    started = time.monotonic()
    assert main(["invariants", "--n", "20000", "--group", "rot(0)", "--degree", "1", "--out", str(tmp_path)]) == 0
    assert time.monotonic() - started < 10
    payload = json.loads((tmp_path / "invariants_n20000.json").read_text())["payload"]
    assert payload["dims"] == [20000, 40000]


ORDER_192 = "rot(1),scalar(4;1,0,0;3,0,0)"    # 64 of its elements fix every vertex


ORDER_192_DIGEST = "b3b340574faa76197b8bcc863887590e500f0af37c0fe34a6350360a5b3ed7d0"


def _order_192_run(tmp_path, degree):
    # runs ORDER_192 through the degree and returns its payload, checking
    # that its dims through degree 100 are the payload pinned while the
    # invariants walked orbits
    assert main(["invariants", "--n", "3", "--group", ORDER_192, "--degree", str(degree), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "invariants_n3.json").read_text())["payload"]
    assert payload["degree"] == degree and len(payload["dims"]) == degree + 1
    if degree >= 100:
        pinned = dict(payload, degree=100, dims=payload["dims"][:101])
        assert hashlib.sha256(canonical_payload_bytes(pinned)).hexdigest() == ORDER_192_DIGEST
    return payload


def test_invariants_walk_is_checked_once_the_group_is_built(tmp_path):
    # the orbit walk's limit, checked once the group was built, refused this
    # group at degrees 101 to 445; the dimensions are counted now, so only
    # the term limit, checked before the group is built, bounds them
    from auslab.invariants import INVARIANT_TERM_LIMIT

    assert 3 * 446 * 447 // 2 <= INVARIANT_TERM_LIMIT
    for degree in (101, 445):
        _order_192_run(tmp_path, degree)


def test_invariants_run_at_the_walk_the_limit_allows(tmp_path):
    dims = [_order_192_run(tmp_path, degree)["dims"] for degree in (24, 100)]
    assert len(dims[1]) == 101 and dims[1][:25] == dims[0]


# twelve independent involutions at n = 11: N = (Z/2)^12, the most
# generators N can have under the 4096-element cap
_UNITS = [[int(i == k) for i in range(11)] for k in range(11)]
INVOLUTIONS_12 = ",".join(
    f"scalar(2;{','.join(map(str, e))};{','.join(map(str, e_star))})"
    for e, e_star in [(u, u) for u in _UNITS] + [([0] * 11, [1] * 11)]
)


def test_invariants_run_the_counts_worst_case_at_the_term_limit(tmp_path):
    from auslab.invariants import INVARIANT_TERM_LIMIT

    group, _ = build_group(INVOLUTIONS_12, 11)
    assert len(group) == len(group.n_elements) == 4096 and len(group.n_gens) == 12
    assert 11 * 233 * 234 // 2 <= INVARIANT_TERM_LIMIT < 11 * 234 * 235 // 2
    assert main(["invariants", "--n", "11", "--group", INVOLUTIONS_12, "--degree", "232", "--out", str(tmp_path)]) == 0
    dims = json.loads((tmp_path / "invariants_n11.json").read_text())["payload"]["dims"]
    assert len(dims) == 233
    assert dims[:7] == [len(orbit_walk(group, d)) for d in range(7)]


@pytest.mark.parametrize(
    "n, group, degree, terms",
    [
        ("3", ORDER_192, "446", 300384),
        ("11", INVOLUTIONS_12, "233", 302445),
        ("8", "rot(1),refl(0)", "273", 301400),
        ("4", "refl(0),scalar(4;1,2,3,1;3,2,1,3)", "386", 300312),
        ("100", "rot(0)", "76", 300300),
        ("3", "rot(1),refl(0)", "100000", 15000450003),
    ],
)
def test_invariants_term_limit_refusals_are_kept(tmp_path, capsys, n, group, degree, terms):
    # the refusals and messages of the term limit while the orbit walk had
    # its own limit besides
    assert main(["invariants", "--n", n, "--group", group, "--degree", degree, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: invariants at n = {n} through degree {degree} may hold {terms} basis terms, over the limit of 300000\n"
    )
    assert not list(tmp_path.iterdir())


def test_verify_smash_size_is_checked_up_front(tmp_path, capsys):
    from auslab.smash import NAIVE_ROW_LIMIT

    started = time.monotonic()
    assert main(["verify", "--suite", "smash", "--n", "16", "--out", str(tmp_path)]) == 1
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert f"limit of {NAIVE_ROW_LIMIT}" in err and "the largest --degree that fits is 0" in err
    assert main(["verify", "--suite", "smash", "--n", "7", "--out", str(tmp_path)]) == 1
    assert "the largest --degree that fits is 3" in capsys.readouterr().err
    assert main(["verify", "--suite", "smash", "--n", "30", "--degree", "0", "--out", str(tmp_path)]) == 1
    assert "no --degree fits at n = 30" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n, degree", [(16, "0"), (7, "3"), (6, None)])
def test_verify_smash_runs_at_the_sizes_the_limit_allows(tmp_path, n, degree):
    # n = 16 and 7 at the degree their refusal names, n = 6 at the default
    argv = ["verify", "--suite", "smash", "--n", str(n)] + (["--degree", degree] if degree else [])
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / f"verify_smash_n{n}.json").read_text())["payload"]
    assert all(check["ok"] for check in payload["checks"])


def test_ideal_build_size_is_checked_up_front(tmp_path, capsys):
    from auslab.smash import IDEAL_CELL_LIMIT

    def cells(n, fixing, degree):
        layout = 4 if n % 2 else 1      # odd n builds every block, even n one chain
        return 30 * n * n + fixing * n * (degree + 1) * (2 * layout * n + degree + 2) // 2

    # the trivial group fits through n = 255 at degree 1 for odd n and through
    # n = 278 for even n, D_16 through degree 540, and D_n at its default
    # cutoff 4n + 4 through n = 45 for odd n and n = 56 for even n
    assert cells(255, 1, 1) <= IDEAL_CELL_LIMIT < cells(257, 1, 1)
    assert cells(278, 1, 1) <= IDEAL_CELL_LIMIT < cells(280, 1, 1)
    assert cells(16, 1, 540) <= IDEAL_CELL_LIMIT < cells(16, 1, 541)
    assert cells(45, 1, 184) <= IDEAL_CELL_LIMIT < cells(47, 1, 192)
    assert cells(56, 1, 228) <= IDEAL_CELL_LIMIT < cells(58, 1, 236)
    for n, group, degree in (
        ("800", "rot(0)", "1"),
        ("16", "rot(1),refl(0)", "1088"),
        ("257", "rot(0)", "1"),
        ("280", "rot(0)", "1"),
        ("16", "rot(1),refl(0)", "541"),
        ("47", "rot(1),refl(0)", "192"),
    ):
        started = time.monotonic()
        assert main(["auslander", "--n", n, "--group", group, "--degree", degree, "--out", str(tmp_path)]) == 1
        assert time.monotonic() - started < 1
        err = capsys.readouterr().err
        assert f"n = {n} through degree {degree}" in err and f"limit of {IDEAL_CELL_LIMIT}" in err
    assert main(["scan", "--n-list", "280", "--all-dihedral-subgroups", "--degree", "1", "--out", str(tmp_path)]) == 1
    assert "n = 280 through degree 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _run_capped(argv, cap_mb=512, seconds=30):
    """The CLI on argv in a fresh interpreter whose address space is capped
    at cap_mb, so an input refused only after O(n) work fails the test
    rather than exhausting the host: (exit code, stderr, seconds)."""
    import resource

    cap = cap_mb << 20
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "auslab.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    return done.returncode, done.stderr, time.monotonic() - started


@pytest.mark.parametrize(
    "argv, message",
    [
        (["auslander", "--n", "100000000", "--group", "refl(0)"], "the ideal build at n = 100000000 through degree 1 "),
        (["scan", "--n-list", "10000000", "--all-dihedral-subgroups"], "the ideal build at n = 10000000 through degree 40000004 "),
        (["verify", "--suite", "structure", "--n", "20000000", "--degree", "0"], "hilbert at n = 20000000 through degree 0 "),
    ],
)
def test_inputs_too_large_are_refused_before_any_work_in_n(tmp_path, argv, message):
    # each is refused on n alone, before the group, the subgroup list or the
    # oracle's degree 0 is built: at a tenth of these n that work took
    # seconds and hundreds of megabytes, and here it would pass the cap
    code, err, seconds = _run_capped(argv + ["--out", str(tmp_path)])
    assert code == 1 and message in err and "over the limit of" in err, err
    assert seconds < 5 and not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, report",
    [
        # |T| = 16 and |N| = 256, so products are index arithmetic through T
        # and its conjugation of N; a |G|^2 table of 16.8 million entries
        # took 2 s and 130 MB.
        pytest.param(
            ["auslander", "--n", "8", "--group", "rot(1),refl(0),scalar(2;1,0,0,0,0,0,0,0;1,0,0,0,0,0,0,0)", "--degree", "4"],
            "auslander_n8.json",
            id="auslander",
        ),
        # D_2048: vertex images are closed form on (rot, refl); a table of
        # one 2048-tuple per element took 1.5 s and 314 MB.
        pytest.param(["invariants", "--n", "2048", "--group", "rot(1),refl(0)", "--degree", "1"], "invariants_n2048.json", id="invariants"),
    ],
)
def test_order_4096_group_is_built_without_a_cayley_table(tmp_path, argv, report):
    # A fresh interpreter reports the command's own time and peak RSS, read
    # from VmHWM, which exec resets (ru_maxrss keeps the parent's peak
    # across it).
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    argv = argv + ["--out", str(tmp_path)]
    code = (
        "import json, sys, time\n"
        "from auslab.cli import main\n"
        "started = time.perf_counter()\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "seconds = time.perf_counter() - started\n"
        "peak = next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, seconds, int(peak) / 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, capture_output=True, text=True, check=True)
    code, seconds, peak_mb = done.stdout.split()
    assert code == "0" and float(seconds) < 1 and float(peak_mb) < 60, done.stdout
    payload = json.loads((tmp_path / report).read_text())["payload"]
    assert payload["group_order"] == 4096


def test_ideal_build_runs_at_the_size_the_limit_allows(tmp_path):
    assert main(["auslander", "--n", "16", "--group", "rot(1),refl(0)", "--degree", "540", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "auslander_n16.json").read_text())["payload"]
    assert len(payload["identity_component_dims"]) == 541 and payload["verdict_empirical"] == "not_iso"


def test_group_order_cap_names_the_order(capsys):
    # D_5000 has order 10000, past the cap, though every generator has
    # finite order
    assert main(["invariants", "--n", "5000", "--group", "rot(1),refl(0)", "--degree", "1"]) == 1
    err = capsys.readouterr().err
    assert "exceeded cap 4096" in err and "order is over the limit of 4096" in err and "infinite" not in err


def test_scalar_order_over_the_cap_is_refused_at_once(tmp_path, capsys):
    # the group has order 65536, over the cap: refused before Q(zeta_65536)
    # is built
    started = time.monotonic()
    assert main(["auslander", "--n", "3", "--group", "scalar(65536;1,1,1;65535,65535,65535)", "--out", str(tmp_path)]) == 1
    assert time.monotonic() - started < 1
    assert "exceeded cap 4096" in capsys.readouterr().err and not list(tmp_path.iterdir())


def test_scalar_term_answers_at_its_true_order(tmp_path):
    # scalar(2;1,1,1;1,1,1) written over 65536: its payload but for the label
    spec = "scalar(65536;32768,32768,32768;32768,32768,32768)"
    started = time.monotonic()
    assert main(["auslander", "--n", "3", "--group", spec, "--out", str(tmp_path)]) == 0
    assert time.monotonic() - started < 1
    payload = json.loads((tmp_path / "auslander_n3.json").read_text())["payload"]
    assert main(["auslander", "--n", "3", "--group", "scalar(2;1,1,1;1,1,1)", "--out", str(tmp_path)]) == 0
    expected = json.loads((tmp_path / "auslander_n3.json").read_text())["payload"]
    assert payload.pop("group") == spec and expected.pop("group") == "scalar(2;1,1,1;1,1,1)"
    assert payload == expected and payload["group_order"] == 2


def _verify(tmp_path, suite, n, degree):
    started = time.monotonic()
    code = main(["verify", "--suite", suite, "--n", str(n), "--degree", str(degree), "--out", str(tmp_path)])
    return code, time.monotonic() - started


@pytest.mark.parametrize(
    "suite, n, degree, limit",
    [
        ("structure", 3, 408, "ORACLE_LABEL_LIMIT"),
        ("orbits", 3, 446, "INVARIANT_TERM_LIMIT"),
        ("orbits", 3, 1000, "INVARIANT_TERM_LIMIT"),
        ("orbits", 4, 273, "INVARIANT_TERM_LIMIT"),     # even n walks the parity orbits as well
        ("relations", 3, 171, "RELATION_STEP_LIMIT"),
        ("relations", 4, 104, "RELATION_STEP_LIMIT"),     # even n counts twice the products
        ("relations", 4, 300, "RELATION_STEP_LIMIT"),
        ("relations", 2000, 0, "RELATION_STEP_LIMIT"),     # s1 s2, s2 s1 and s1 s1 run at every degree
    ],
)
def test_verify_suites_are_refused_up_front(tmp_path, capsys, suite, n, degree, limit):
    from auslab import invariants, preproj

    value = getattr(invariants, limit, None) or getattr(preproj, limit)
    code, elapsed = _verify(tmp_path, suite, n, degree)
    assert code == 1 and elapsed < 1
    err = capsys.readouterr().err
    assert f"verify --suite {suite}:" in err and f"n = {n}" in err and f"degree {degree}" in err
    assert f"limit of {value}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "suite, n, degree, seconds",
    [
        ("structure", 3, 400, 5),
        ("structure", 3, 407, 5),
        ("orbits", 3, 445, 10),
        ("orbits", 4, 272, 10),
        ("relations", 3, 170, 10),
    ],
)
def test_verify_suites_run_at_the_sizes_their_limits_allow(tmp_path, suite, n, degree, seconds):
    code, elapsed = _verify(tmp_path, suite, n, degree)
    assert code == 0 and elapsed < seconds
    payload = json.loads((tmp_path / f"verify_{suite}_n{n}.json").read_text())["payload"]
    assert payload["degree"] == degree and all(check["ok"] for check in payload["checks"])
