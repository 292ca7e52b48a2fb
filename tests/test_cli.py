import dataclasses
import json
import re
from pathlib import Path

import pytest

from tritrade import cli, construct, cube, enumeration, errors, testsets
from tritrade.cli import (
    CHECKS,
    EXIT_BAD_PARAMS,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RESOURCE,
    build_parser,
    main,
)
from tritrade.errors import BrokenInvariant
from tritrade.refdata import N_FUNCTIONS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerateCommand:
    @pytest.mark.parametrize(
        "argv,code,out",
        [
            (["--n", "-1"], EXIT_BAD_PARAMS, ""),
            (["--n", "0"], EXIT_OK, "3"),
            (["--n", "1"], EXIT_OK, "7"),
            (["--n", "3"], EXIT_OK, "403"),
            (["--n", "4", "--jobs", "2"], EXIT_OK, "29875"),  # classes over two workers
            (["--n", "3", "--jobs", "0"], EXIT_BAD_PARAMS, ""),
        ],
        ids=["n-1", "n0", "n1", "n3", "n4-jobs2", "jobs0"],
    )
    def test_count_exit_codes(self, capsys, argv, code, out):
        got_code, got_out, err = run(capsys, "enumerate", "--mode", "count", *argv)
        assert got_code == code
        assert got_out.strip() == out
        assert ("parameter error" in err) == (code == EXIT_BAD_PARAMS)

    def test_jobs_ignores_the_environment(self, capsys, tmp_path, monkeypatch):
        # a jobs default read from TRITRADE_JOBS ended every command in a
        # traceback when the variable was not an integer
        monkeypatch.setenv("TRITRADE_JOBS", "abc")
        assert run(capsys, "verify", "--check", "mod3", "--n", "2")[0] == EXIT_OK
        out_file = tmp_path / "count.json"
        code, _, _ = run(capsys, "enumerate", "--n", "2", "--out", str(out_file))
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["manifest"]["jobs"] == 1

    @pytest.mark.parametrize("mode", ["spectrum", "classes"])
    def test_manifest_records_the_workers_used(self, capsys, tmp_path, mode):
        # only the count fans out; the spectrum and the class report run in one process
        out_file = tmp_path / "out.json"
        code, _, _ = run(
            capsys, "enumerate", "--n", "2", "--mode", mode, "--jobs", "4", "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["manifest"]["jobs"] == 1

    @pytest.mark.parametrize("n,workers", [(2, 1), (3, 2)])
    def test_count_manifest_records_the_workers_used(self, capsys, tmp_path, n, workers):
        # the count opens one worker per nonzero class one dimension down at
        # most, and none for one class: n = 2 counts in-process, n = 3 in two
        out_file = tmp_path / "count.json"
        code, _, _ = run(
            capsys, "enumerate", "--n", str(n), "--mode", "count", "--jobs", "4", "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["manifest"]["jobs"] == workers

    def test_classes_n2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--mode", "classes")
        assert code == EXIT_OK
        assert out.strip().splitlines()[0] == "3"

    def test_classes_n3_payload_pinned(self, capsys, tmp_path):
        # locks the class keys (canonical forms) and their record order
        out_file = tmp_path / "classes.json"
        code, _, _ = run(
            capsys, "enumerate", "--n", "3", "--mode", "classes", "--out", str(out_file)
        )
        assert code == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert doc["manifest"]["payload_sha256"] == (
            "a43cc868e8d3a4c2dc5ddce9dda91589a5b15a2fb803baf8752e09d55d19724c"
        )

    @pytest.mark.parametrize(
        "mode,n,digest",
        [
            ("classes", 4, "4212a3bcd31ed2e2d685a52ffce7d036112b6d1dcb82e83ff24649b1bbd77f7f"),
            ("classes", 5, "9daf820e15c44fbc3f2a31d8aff352488ef26227cefb54862b7a2fc8c904d0f7"),
            ("spectrum", 3, "164df01ee36571393e91948dffe3c5facbd691ea31d559f491cfeb42a247d245"),
            ("spectrum", 4, "3e5a8b22a6e4895d1e0eda4e413a8abe9f578c3818464b87aef4bfc6ef350b34"),
        ],
    )
    def test_payload_pinned(self, capsys, tmp_path, mode, n, digest):
        out_file = tmp_path / "out.json"
        code, _, _ = run(
            capsys, "enumerate", "--n", str(n), "--mode", mode, "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["manifest"]["payload_sha256"] == digest

    def test_spectrum_json(self, capsys, tmp_path):
        out_file = tmp_path / "spec.json"
        code, _, _ = run(
            capsys, "enumerate", "--n", "3", "--mode", "spectrum", "--out", str(out_file)
        )
        assert code == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "tritrade/1"
        assert doc["payload"]["N"] == "403"
        assert doc["manifest"]["payload_sha256"]

    def test_spectrum_csv(self, capsys, tmp_path):
        out_file = tmp_path / "spec.csv"
        code, _, _ = run(
            capsys, "enumerate", "--n", "2", "--mode", "spectrum",
            "--format", "csv", "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert out_file.read_text().splitlines() == ["size,sets", "4,9", "6,6"]
        assert (tmp_path / "spec.csv.manifest.json").exists()

    def test_determinism_of_checksums(self, capsys, tmp_path):
        digests = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            run(capsys, "enumerate", "--n", "2", "--mode", "spectrum", "--out", str(out_file))
            digests.append(
                json.loads(out_file.read_text())["manifest"]["payload_sha256"]
            )
        assert digests[0] == digests[1]

    def test_resource_limits(self, capsys):
        # the caps are the library's; test_exit_code_contract holds the exit
        # codes, this the message of the count's cap
        code, _, err = run(capsys, "enumerate", "--n", "7", "--mode", "count")
        assert code == EXIT_RESOURCE
        assert "capped at n=6" in err

    def test_count_n6_routes_through_classes(self, capsys, monkeypatch):
        # every count, not only N(6), is the class count's
        calls = []

        def stub(n, jobs=1):
            calls.append((n, jobs))
            return 12345

        monkeypatch.setattr(enumeration, "count_by_retract_classes", stub)
        for n in (1, 5, 6):
            code, out, _ = run(capsys, "enumerate", "--n", str(n), "--mode", "count", "--jobs", "2")
            assert code == EXIT_OK
            assert out.strip() == "12345"
        assert calls == [(1, 2), (5, 2), (6, 2)]

    @pytest.mark.nightly
    def test_count_n6(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--mode", "count", "--jobs", "2")
        assert code == EXIT_OK
        assert out.strip() == str(N_FUNCTIONS[6])


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "check,n",
        # the spectrum checks are the package's only code that holds a
        # spectrum to the theorems: the live one at n <= 5, the shipped
        # tables at n = 6, 7
        [
            (check, n)
            for check in ("mod3", "small-spectrum", "minimal-count", "max-unique")
            for n in range(1, 8)
        ]
        + [("gap-14", n) for n in range(3, 8)]
        + [
            ("alpha", 3),
            ("rank2", 3),
            ("rank2", 4),
            ("pot12", 3),
            ("hprime", 2),
            ("testset", 3),
        ],
    )
    def test_checks_pass(self, capsys, check, n):
        code, out, _ = run(capsys, "verify", "--check", check, "--n", str(n))
        assert code == EXIT_OK
        assert out.strip().endswith("pass")

    def test_max_unique_reads_the_class_layer(self, capsys, tmp_path):
        out_file = tmp_path / "max.json"
        code, _, _ = run(
            capsys, "verify", "--check", "max-unique", "--n", "4", "--out", str(out_file)
        )
        assert code == EXIT_OK
        detail = json.loads(out_file.read_text())["payload"]["detail"]
        assert detail["class_orbits"] == [48] and detail["count"] == 24

    def test_max_unique_fails_on_a_second_maximal_class(self, capsys, monkeypatch):
        # the n = 3 maximal class split in two, each with half the orbit
        count, records = enumeration.classify_all(3)
        top = records[-1]
        assert top.cardinality == 18
        halves = [dataclasses.replace(top, orbit_size=top.orbit_size // 2)] * 2
        monkeypatch.setattr(cli, "classify_all", lambda n: (count + 1, records[:-1] + halves))
        code, out, _ = run(capsys, "verify", "--check", "max-unique", "--n", "3")
        assert code == EXIT_CHECK_FAILED
        assert out.strip().endswith("FAIL")

    def test_recover_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "recover", "--n", "8")
        assert code == EXIT_OK

    def test_recover_refusal_fails_the_check(self, capsys, monkeypatch, tmp_path):
        # every synthetic instance meets the recovery precondition, so a
        # refusal is a failed trial, not a parameter error
        def refuse(U, D):
            raise ValueError("recovered set does not reproduce the input")

        monkeypatch.setattr(construct, "recover_monomials", refuse)
        out_file = tmp_path / "rec.json"
        code, out, _ = run(
            capsys, "verify", "--check", "recover", "--n", "8", "--out", str(out_file)
        )
        assert code == EXIT_CHECK_FAILED
        assert out.strip().endswith("FAIL")
        detail = json.loads(out_file.read_text())["payload"]["detail"]
        assert detail["recovered"] == 0 and detail["trials"] == 25
        assert detail["refused"] == ["recovered set does not reproduce the input"] * 5

    def test_testset_broken_extraction_fails_the_check(self, capsys, monkeypatch):
        def broken(U, catalog=None):
            raise BrokenInvariant("expected rank 26 and 7 points, got 25 and 6")

        monkeypatch.setattr(testsets, "extract_testset", broken)
        code, _, err = run(capsys, "verify", "--check", "testset", "--n", "3")
        assert code == EXIT_CHECK_FAILED
        assert err.strip() == "broken invariant: expected rank 26 and 7 points, got 25 and 6"

    def test_testset_wrong_line_rank_fails_the_check(self, capsys, monkeypatch):
        # a line system short of rank 3^m - 2^m breaks the theorem, not the input
        lines = cube.line_masks
        monkeypatch.setattr(cube, "line_masks", lambda m, k: lines(m, k)[:1])
        testsets._line_pivots.cache_clear()
        try:
            code, _, err = run(capsys, "verify", "--check", "testset", "--n", "3")
        finally:
            testsets._line_pivots.cache_clear()
        assert code == EXIT_CHECK_FAILED
        assert err.strip() == "broken invariant: line system rank is off"

    def test_testset_refuses_n0_before_its_loop(self, capsys, monkeypatch):
        # the refusal names the check, not the construction it would reach
        def no_catalog(m):
            raise AssertionError("the xor/extraction loop ran")

        monkeypatch.setattr(cli, "bitrade_catalog", no_catalog)
        code, _, err = run(capsys, "verify", "--check", "testset", "--n", "0")
        assert code == EXIT_BAD_PARAMS
        assert err.strip() == "parameter error: testset check needs n >= 1"

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "nope", "--n", "2")
        assert code == 2

    def test_report_payload(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        code, _, _ = run(
            capsys, "verify", "--check", "minimal-count", "--n", "4",
            "--out", str(out_file)
        )
        doc = json.loads(out_file.read_text())
        assert doc["payload"]["pass"] is True
        assert doc["payload"]["check"] == "minimal-count"

    def test_registry_matches_docs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text()
        section = re.search(
            r"## Verify checks\n(.*?)\n## ", text, re.S
        )
        assert section, "README must list the verify checks"
        documented = set(re.findall(r"`([a-z0-9-]+)`", section.group(1)))
        assert documented == set(CHECKS)


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --n 2 --jobs 0",
        "enumerate --n 2 --jobs -3",
        "enumerate --n 2 --mode spectrum --out /nonexistent/dir/x.json",
        "construct --what product --left @/nonexistent",
        "construct --what pot12 --f 2",
        "construct --what pot12 --f 0121",
        # (0,) * -1 is (), which built a dimension-0 cube
        "construct --what product --left minimal:-1 --right minimal:1",
    ],
)
def test_boundary_inputs_exit_bad_params(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == EXIT_BAD_PARAMS
    assert err.startswith("parameter error")


@pytest.mark.parametrize(
    "argv,seed",
    [
        ("enumerate --n 2 --mode spectrum", None),
        ("construct --what maximal --n 2", None),
        ("verify --check mod3 --n 2 --seed 5", 5),
    ],
)
def test_manifest_seed(capsys, tmp_path, argv, seed):
    # enumerate and construct draw no random numbers, so only verify has a seed
    out_file = tmp_path / "out.json"
    code, _, _ = run(capsys, *argv.split(), "--out", str(out_file))
    assert code == EXIT_OK
    assert json.loads(out_file.read_text())["manifest"]["seed"] == seed


@pytest.mark.parametrize("argv", ["enumerate --n 2", "construct --what maximal"])
def test_seed_is_a_verify_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--seed", "1"])
    assert exc.value.code == EXIT_BAD_PARAMS


def test_readme_cli_examples_parse():
    # like test_registry_matches_docs: a deleted flag must not stay documented
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme.read_text(), re.S)
    assert block, "README must have a CLI block"
    lines = [ln.split("#")[0].split() for ln in block.group(1).splitlines()]
    examples = [words[1:] for words in lines if words[:1] == ["tritrade"]]
    assert examples
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: tritrade {' '.join(argv)}")


# one library call per command, each made to raise; main alone maps the
# exception to the exit code, and no input ends in a traceback
_RAISING_CALLS = [
    (enumeration, "count_by_retract_classes", "enumerate --n 3"),
    (cli, "spectrum", "verify --check mod3 --n 3"),
    (construct, "maximal_bitrade", "construct --what maximal --n 3"),
]
# one exit code per class of tritrade.errors, and one row per class: a
# class added there without a code here gets None and fails its rows
_CODE_OF = {
    errors.TritradeError: EXIT_BAD_PARAMS,
    errors.NotAUnitrade: EXIT_BAD_PARAMS,
    errors.DimensionTooSmall: EXIT_BAD_PARAMS,
    errors.PreconditionFailed: EXIT_BAD_PARAMS,
    errors.BrokenInvariant: EXIT_CHECK_FAILED,
    errors.DimensionTooLarge: EXIT_RESOURCE,
}
_PREFIX = {EXIT_BAD_PARAMS: "parameter error: ", EXIT_CHECK_FAILED: "broken invariant: "}
_ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)
]
_EXIT_FOR = [
    (c(c.__name__), _CODE_OF.get(c), _PREFIX.get(_CODE_OF.get(c), "") + c.__name__)
    for c in _ERROR_CLASSES
] + [
    (MemoryError(), EXIT_RESOURCE, "resource limit: out of memory"),
    (ValueError("bad value"), EXIT_BAD_PARAMS, "parameter error: bad value"),
    (TypeError("bad type"), EXIT_BAD_PARAMS, "parameter error: bad type"),
    (OSError("unreadable"), EXIT_BAD_PARAMS, "parameter error: unreadable"),
]


@pytest.mark.parametrize(
    "owner,target,argv",
    [pytest.param(o, t, a, id=t) for o, t, a in _RAISING_CALLS],
)
@pytest.mark.parametrize(
    "exc,code,message",
    [pytest.param(e, c, m, id=type(e).__name__) for e, c, m in _EXIT_FOR],
)
def test_one_exit_code_boundary(capsys, monkeypatch, owner, target, argv, exc, code, message):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(owner, target, boom)
    got, out, err = run(capsys, *argv.split())
    assert got == code
    assert err.strip() == message
    assert "Traceback" not in out + err


# the exit-code contract at every boundary: per command, the code at n = 0
# and at n = 1, and the first n past the library's cap (None: the command
# ignores --n or bounds it itself); n = -1 is exit 2 everywhere
_SPECTRUM_CHECK = (EXIT_BAD_PARAMS, EXIT_OK, 8)  # live to n = 5, shipped n = 6, 7
_PAST_CONSTRUCT_CAP = construct.CONSTRUCT_MAX_N + 1  # 13
_CONTRACT = {
    "enumerate --mode count": (EXIT_OK, EXIT_OK, 7),
    "enumerate --mode spectrum": (EXIT_BAD_PARAMS, EXIT_OK, 6),
    "enumerate --mode classes": (EXIT_OK, EXIT_OK, 6),
    "verify --check mod3": _SPECTRUM_CHECK,
    "verify --check small-spectrum": _SPECTRUM_CHECK,
    "verify --check minimal-count": _SPECTRUM_CHECK,
    "verify --check max-unique": _SPECTRUM_CHECK,
    "verify --check gap-14": (EXIT_BAD_PARAMS, EXIT_BAD_PARAMS, 8),
    "verify --check alpha": (EXIT_BAD_PARAMS, EXIT_OK, 5),
    "verify --check rank2": (EXIT_BAD_PARAMS, EXIT_OK, 5),
    "verify --check pot12": (EXIT_OK, EXIT_OK, _PAST_CONSTRUCT_CAP),
    "verify --check hprime": (EXIT_OK, EXIT_OK, None),  # ignores --n
    "verify --check recover": (EXIT_OK, EXIT_OK, cli.RECOVER_MAX_N + 1),  # runs at max(n, 8)
    "verify --check testset": (EXIT_BAD_PARAMS, EXIT_OK, None),  # runs at min(n, 3)
    "construct --what maximal": (EXIT_BAD_PARAMS, EXIT_OK, _PAST_CONSTRUCT_CAP),
    "construct --what rank2": (EXIT_BAD_PARAMS, EXIT_OK, _PAST_CONSTRUCT_CAP),
    "construct --what bitrade14": (EXIT_BAD_PARAMS, EXIT_BAD_PARAMS, _PAST_CONSTRUCT_CAP),
    "construct --what product": (EXIT_OK, EXIT_OK, None),  # ignores --n
    "construct --what kext": (EXIT_OK, EXIT_OK, None),  # ignores --n
    "construct --what hprime": (EXIT_OK, EXIT_OK, None),  # ignores --n
    "construct --what pot12": (EXIT_OK, EXIT_OK, None),  # ignores --n
}


def _choices(command, dest):
    sub = next(a for a in build_parser()._actions if a.dest == "cmd").choices[command]
    return next(a for a in sub._actions if a.dest == dest).choices


def test_contract_names_every_command():
    commands = (
        [f"enumerate --mode {m}" for m in _choices("enumerate", "mode")]
        + [f"verify --check {c}" for c in CHECKS]
        + [f"construct --what {w}" for w in _choices("construct", "what")]
    )
    assert sorted(_CONTRACT) == sorted(commands)


@pytest.mark.parametrize(
    "command,n,code",
    [
        pytest.param(command, n, code, id=f"{command} --n {n}")
        for command, (at0, at1, past_cap) in _CONTRACT.items()
        for n, code in ((-1, EXIT_BAD_PARAMS), (0, at0), (1, at1), (past_cap, EXIT_RESOURCE))
        if n is not None
    ],
)
def test_exit_code_contract(capsys, command, n, code):
    got, out, err = run(capsys, *command.split(), "--n", str(n))
    assert got == code
    assert "Traceback" not in out + err
    if code == EXIT_BAD_PARAMS:
        assert err.startswith("parameter error")
    if code == EXIT_RESOURCE:  # refused before any work: no partial output
        assert out == "" and err.strip()


# the constructions that ignore --n pass the cap through their other
# arguments: the result of a product or an extension past it from inputs
# within it, a past-cap `minimal:n` spec, a pot12 truth table of 2^13
# characters, and the first hprime t past its own cap
_PAST_CAP_ARGS = [
    f"construct --what hprime --t {construct.HPRIME_MAX_T + 1}",
    f"construct --what product --left maximal:7 --right maximal:{_PAST_CONSTRUCT_CAP - 7}",
    f"construct --what product --left minimal:1 --right minimal:{_PAST_CONSTRUCT_CAP - 1}",
    f"construct --what product --left minimal:{_PAST_CONSTRUCT_CAP}",
    f"construct --what kext --base maximal:{_PAST_CONSTRUCT_CAP - 2} --m 2",
    f"construct --what kext --base bitrade14:3 --m {_PAST_CONSTRUCT_CAP - 3}",
    f"construct --what pot12 --f {'01' * 2 ** (_PAST_CONSTRUCT_CAP - 1)}",
]


@pytest.mark.parametrize("argv", _PAST_CAP_ARGS, ids=lambda argv: argv[:60])
def test_construct_refuses_past_cap_results(capsys, argv):
    got, out, err = run(capsys, *argv.split())
    assert got == EXIT_RESOURCE
    assert out == "" and "constructions capped" in err and "Traceback" not in err


_NO_SUPPORT = {"n": 2, "k": 3}
_Q4_PAIR = {"n": 1, "k": 4, "support": "1100"}
# no cube has an empty or a negative alphabet; each support has the length
# k^n asks for, so only the alphabet check refuses it
_NO_ALPHABET = {"n": 2, "k": 0, "support": ""}
_NEGATIVE_ALPHABET = {"n": 2, "k": -3, "support": "000000000"}
_HUGE_N = {"n": 10 ** 9, "k": 3, "support": "1"}
_INFINITE_N = {"n": float("inf"), "k": 3, "support": "1"}  # written as Infinity


@pytest.mark.parametrize(
    "doc,argv,needle",
    [
        pytest.param(_NO_SUPPORT, argv, "support", id=argv)
        for argv in (
            "construct --what kext --base @{}",
            "construct --what product --left @{} --right minimal:1",
            "construct --what product --left minimal:1 --right @{}",
        )
    ]
    # the extension folds ternary coordinates: a Q_4 bitrade is refused, not
    # truncated to its first 3^n cells
    + [
        pytest.param(_Q4_PAIR, argv, "k = 4", id=argv + " (k=4)")
        for argv in ("construct --what kext --base @{} --m 0", "construct --what kext --base @{} --m 1")
    ]
    + [
        pytest.param(doc, "construct --what product --left @{} --right minimal:1", "k >= 1", id=name)
        for name, doc in (("k=0", _NO_ALPHABET), ("k=-3", _NEGATIVE_ALPHABET))
    ]
    # the length check refuses before it computes 3^n, which took seconds
    # at n = 10^7 and did not end at n = 10^8
    + [
        pytest.param(
            _HUGE_N, "construct --what product --left @{} --right minimal:1", "support", id="n=10^9"
        ),
        pytest.param(
            _INFINITE_N, "construct --what product --left @{} --right minimal:1", "finite", id="n=inf"
        ),
    ],
)
def test_trade_file_missing_a_field_exits_bad_params(capsys, tmp_path, doc, argv, needle):
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run(capsys, *argv.format(spec).split())
    assert code == EXIT_BAD_PARAMS
    assert err.startswith("parameter error") and needle in err


@pytest.mark.parametrize("spec", ["maximal:2:3", "rank2:3", "minimal", "bogus:1", "maximal:-1"])
def test_malformed_trade_spec_names_the_spec(capsys, spec):
    # an unknown family, a wrong parameter count or a negative parameter
    # is one refusal of the spec, not a message from the builder's call
    code, _, err = run(capsys, "construct", "--what", "product", "--left", spec)
    assert code == EXIT_BAD_PARAMS
    assert err.startswith("parameter error") and f"bad trade spec {spec!r}" in err


# one JSON and one CSV command per subcommand
_WRITER_CASES = [
    "enumerate --n 2 --mode spectrum",
    "enumerate --n 3 --mode count --format csv",
    "verify --check mod3 --n 2",
    "verify --check gap-14 --n 4 --format csv",
    "construct --what rank2 --n 3 --s 1",
    "construct --what hprime --t 2 --format csv",
]


@pytest.mark.parametrize("argv", _WRITER_CASES)
def test_stdout_and_out_write_the_same_report(capsys, tmp_path, monkeypatch, argv):
    # what stdout shows without --out is what --out writes; the other lines
    # (a count, a check's verdict) stay on stdout either way
    monkeypatch.chdir(tmp_path)
    argv = argv.split()
    code, plain, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert list(tmp_path.iterdir()) == []  # no sidecar without --out
    path = tmp_path / "report"
    code, rest, _ = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_OK
    text = path.read_text()
    sidecar = tmp_path / "report.manifest.json"
    if "csv" in argv:
        assert plain.replace(text, "", 1) == rest
        assert json.loads(sidecar.read_text())["manifest"]["command"] == [*argv, "--out", str(path)]
        return
    assert not sidecar.exists()
    start = plain.index("{")
    doc, end = json.JSONDecoder().raw_decode(plain, start)
    assert plain[:start] + plain[end + 1:] == rest
    written = json.loads(text)
    assert doc["manifest"].pop("command") == argv
    assert written["manifest"].pop("command") == [*argv, "--out", str(path)]
    for d in (doc, written):
        del d["manifest"]["wall_time_s"]
    assert doc == written


class TestConstructCommand:
    def test_maximal(self, capsys, tmp_path):
        out_file = tmp_path / "max.json"
        code, _, _ = run(
            capsys, "construct", "--what", "maximal", "--n", "3", "--out", str(out_file)
        )
        assert code == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert doc["payload"]["cardinality"] == 18
        assert doc["payload"]["self_check"]["is_unitrade"] is True

    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "d747f46c4ae00d6fb98d40f15122b66ab074cc3b76f502881b5c1bffabc52f17"),
            (2, "56a3a0f6eb4f50680f692eb966fe560c94549376ee28283aab242e97cbcb05fe"),
            (3, "3a78ab572a5b4437c17625881deedbc4c28d4fce46e3525c36321cd81276af94"),
            (4, "bc2c70defa1f476d3bd34c903930af4f1c814ac18cda150fd30c99828b738458"),
            (5, "cfd057ad844b91a0604cdc7790d563bb139099c6641bd84572c2200a5c42e989"),
            (6, "8a542541a8acacce890bbf1b2cbc87bebef4fd061e2d2c67aad14984a7d24778"),
        ],
    )
    def test_maximal_payload_pinned(self, capsys, tmp_path, n, digest):
        # locks the legs and their order, whatever builds the residues
        out_file = tmp_path / "max.json"
        code, _, _ = run(
            capsys, "construct", "--what", "maximal", "--n", str(n), "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["manifest"]["payload_sha256"] == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("construct --what rank2 --n 5 --s 2", "2ae424545aad8b7fb4b018ad6f55970d8a1a8b83ed293f1436c2e19d63b73701"),
            ("construct --what bitrade14 --n 5", "fa62027353095510c026500ea5ea20f3f9def5b8e4c4426a80a2d8227a6c7d1a"),
            ("construct --what hprime --t 3", "e377e986b0b3354d7b6d27ced9abfb2045ea39536bbbe769434d5f35924ae26c"),
            (
                "construct --what product --left rank2:3:1 --right bitrade14:3",
                "dcd6372bd3d433fc526b2ea4fa5e538d071922f7b8555f0c8c6508230464cb4e",
            ),
            ("construct --what kext --base maximal:2 --m 2", "fe20f2838f4dccbaa3972e63664da52b8e6686af8755bb1186374d327d1512a3"),
            ("construct --what pot12 --f 0110", "a68fdd6a0d7536f670feb6531e2abe5b100ed6ba5bbfcf74496467aa226d7dca"),
            ("verify --check hprime --n 3", "1983aa8dd1fff20f300fa328432f44bb516c5e2adef0e24c15d9a1403475c583"),
            ("verify --check testset --n 3", "1787151045bee817e4c03a9f984086e41be3637e9fa67ba49df36f821fb77f2d"),
            ("verify --check recover --n 3", "0ae175951421b68d6f221bf5a92afdaf8ad0cb096608686a76868e40075786c0"),
        ],
    )
    def test_family_and_audit_payloads_pinned(self, capsys, tmp_path, argv, digest):
        # locks what the family table, the trade specs, the hprime audit,
        # the testing-set hypothesis check and the recovery precondition
        # produce, whichever code path reaches them
        out_file = tmp_path / "out.json"
        code, _, _ = run(capsys, *argv.split(), "--out", str(out_file))
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["manifest"]["payload_sha256"] == digest

    def test_hprime(self, capsys, tmp_path):
        out_file = tmp_path / "h.json"
        code, _, _ = run(
            capsys, "construct", "--what", "hprime", "--t", "2", "--out", str(out_file)
        )
        assert code == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert doc["payload"]["length"] == 6

    def test_rank2(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "construct", "--what", "rank2", "--n", "5", "--s", "2",
            "--out", str(out_file)
        )
        doc = json.loads(out_file.read_text())
        assert doc["payload"]["cardinality"] == 56

    def test_product_and_kext(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "construct", "--what", "product",
            "--left", "maximal:2", "--right", "minimal:1", "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["payload"]["cardinality"] == 12
        code, _, _ = run(
            capsys, "construct", "--what", "kext", "--base", "bitrade14:3",
            "--m", "1", "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["payload"]["cardinality"] == 42

    def test_pot12(self, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "construct", "--what", "pot12", "--f", "0011", "--out", str(out_file)
        )
        assert code == EXIT_OK
        assert json.loads(out_file.read_text())["payload"]["cardinality"] == 4

    def test_size_off_the_formula_fails_the_self_check(self, capsys, monkeypatch):
        # expected_size is a number, so only its comparison with the
        # cardinality can fail it
        real = construct.rank2_family
        monkeypatch.setattr(construct, "rank2_family", lambda n, s: real(n, s + 1))
        code, out, err = run(capsys, "construct", "--what", "rank2", "--n", "5", "--s", "2")
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)["payload"]["cardinality"] == 48
        assert err.strip() == "self-check failed: ['expected_size']"

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "construct", "--what", "rank2", "--n", "3", "--s", "9")
        assert code == 2
