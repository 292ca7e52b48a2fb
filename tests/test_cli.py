import json
import re
from pathlib import Path

import pytest

from tritrade import enumeration
from tritrade.cli import CHECKS, EXIT_BAD_PARAMS, EXIT_OK, EXIT_RESOURCE, main
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
            (["--n", "4", "--jobs", "2"], EXIT_OK, "29875"),  # the split into units
            (["--n", "3", "--jobs", "0"], EXIT_BAD_PARAMS, ""),
        ],
        ids=["n-1", "n0", "n1", "n3", "n4-jobs2", "jobs0"],
    )
    def test_count_exit_codes(self, capsys, argv, code, out):
        got_code, got_out, err = run(capsys, "enumerate", "--mode", "count", *argv)
        assert got_code == code
        assert got_out.strip() == out
        assert ("parameter error" in err) == (code == EXIT_BAD_PARAMS)

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
        code, _, err = run(capsys, "enumerate", "--n", "7", "--mode", "count")
        assert code == EXIT_RESOURCE
        code, _, err = run(capsys, "enumerate", "--n", "6", "--mode", "spectrum")
        assert code == EXIT_RESOURCE
        code, _, err = run(capsys, "enumerate", "--n", "6", "--mode", "count")
        assert code == EXIT_RESOURCE  # needs --allow-big
        assert "91 nonzero n=5 classes" in err and "--allow-big" in err
        code, _, err = run(capsys, "enumerate", "--n", "6", "--mode", "count", "--jobs", "2")
        assert code == EXIT_RESOURCE  # needs --allow-big
        code, _, err = run(capsys, "enumerate", "--n", "7", "--mode", "count", "--allow-big")
        assert code == EXIT_RESOURCE
        code, _, err = run(capsys, "enumerate", "--n", "6", "--mode", "classes")
        assert code == EXIT_RESOURCE
        code, _, err = run(
            capsys, "enumerate", "--n", "6", "--mode", "classes", "--allow-big"
        )
        assert code == EXIT_RESOURCE

    def test_count_n6_routes_through_classes(self, capsys, monkeypatch):
        calls = []

        def stub(n, jobs=1):
            calls.append((n, jobs))
            return 12345

        monkeypatch.setattr(enumeration, "count_by_retract_classes", stub)
        code, out, _ = run(
            capsys, "enumerate", "--n", "6", "--mode", "count", "--allow-big", "--jobs", "2"
        )
        assert code == EXIT_OK
        assert calls == [(6, 2)]
        assert out.strip() == "12345"

    @pytest.mark.nightly
    def test_count_n6(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "6", "--mode", "count", "--allow-big", "--jobs", "2"
        )
        assert code == EXIT_OK
        assert out.strip() == str(N_FUNCTIONS[6])


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "check,n",
        [
            ("mod3", 4),
            ("small-spectrum", 4),
            ("alpha", 3),
            ("rank2", 3),
            ("rank2", 4),
            ("minimal-count", 5),
            ("max-unique", 3),
            ("gap-14", 4),
            ("pot12", 3),
            ("hprime", 2),
            ("testset", 3),
        ],
    )
    def test_checks_pass(self, capsys, check, n):
        code, out, _ = run(capsys, "verify", "--check", check, "--n", str(n))
        assert code == EXIT_OK
        assert out.strip().endswith("pass")

    def test_recover_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "recover", "--n", "8")
        assert code == EXIT_OK

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "nope", "--n", "2")
        assert code == 2

    def test_resource_limits(self, capsys):
        for check, n in (("alpha", 5), ("rank2", 5), ("mod3", 8)):
            code, _, err = run(capsys, "verify", "--check", check, "--n", str(n))
            assert code == EXIT_RESOURCE
            assert err.strip()

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
        "enumerate --n -1",
        "enumerate --n 2 --jobs 0",
        "enumerate --n 2 --jobs -3",
        "verify --check gap-14 --n 1",
        "verify --check testset --n 0",
        "verify --check mod3 --n 0",
        "verify --check alpha --n 0",
        "verify --check rank2 --n 0",
        "enumerate --n 2 --mode spectrum --out /nonexistent/dir/x.json",
        "construct --what product --left @/nonexistent",
        "construct --what pot12 --f 2",
        "construct --what pot12 --f 0121",
    ],
)
def test_boundary_inputs_exit_bad_params(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == EXIT_BAD_PARAMS
    assert err.startswith("parameter error")


_NO_SUPPORT = {"n": 2, "k": 3}
_Q4_PAIR = {"n": 1, "k": 4, "support": "1100"}


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
    ],
)
def test_trade_file_missing_a_field_exits_bad_params(capsys, tmp_path, doc, argv, needle):
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run(capsys, *argv.format(spec).split())
    assert code == EXIT_BAD_PARAMS
    assert err.startswith("parameter error") and needle in err


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

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "construct", "--what", "rank2", "--n", "3", "--s", "9")
        assert code == 2
