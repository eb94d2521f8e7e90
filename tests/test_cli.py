import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcat.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
RP2 = str(FIXTURES / "rp2.sset")
BZ2 = str(FIXTURES / "bz2.cat")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_subdivide_positive_verdict(capsys):
    rc, out, err = run(capsys, "subdivide", "--word", "op,id",
                       "--mmax", "3", "--depth", "4")
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "subdivision"
    assert [c["status"] for c in report["per_m"]] == ["contractible_up_to"] * 3
    assert [c["depth"] for c in report["per_m"]] == [3, 3, 3]
    assert "subdivision" in err


def test_negative_verdicts_still_exit_zero(capsys):
    rc, out, _ = run(capsys, "subdivide", "--word", "const:0", "--mmax", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "not_subdivision"
    assert report["witness_m"] == 1


def test_twisted_comparison_on_a_fixture(capsys):
    rc, out, _ = run(capsys, "twisted", "--in", BZ2, "--depth", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["matches_edgewise"] is True
    assert report["left_fibration"] is True
    assert report["levels"] == [2, 8, 32]


def test_homology_of_the_projective_plane_fixture(capsys):
    rc, out, _ = run(capsys, "homology", "--in", RP2, "--depth", "2")
    assert rc == 0
    assert json.loads(out)["groups"] == [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 1, "betti": 0, "torsion": [2]},
        {"degree": 2, "betti": 0, "torsion": []},
    ]


def test_pi1_of_the_projective_plane_fixture(capsys):
    rc, out, _ = run(capsys, "pi1", "--in", RP2)
    assert rc == 0
    report = json.loads(out)
    assert report["abelianization"] == {"betti": 0, "torsion": [2]}
    assert report["abelianization_label"] == "Z/2"


def test_k0_labels_the_class_group(capsys):
    rc, out, err = run(capsys, "k0", "--instance", "vect:2:1", "--depth", "3")
    assert rc == 0
    assert json.loads(out)["k0"] == "Z"
    assert "Z" in err


def test_segal_pinned_comparison(capsys):
    rc, out, _ = run(capsys, "segal", "--instance", "abp:2:4", "--n", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["diagram_classes"] == report["composable_strings"] == 154
    assert report["passed"] is True


def test_devissage_certificate_record(capsys):
    rc, out, _ = run(capsys, "devissage", "--source", "vect:2:2",
                     "--target", "abp:2:4", "--probes", "0,c2,c4",
                     "--depth", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["embedding"] == "vect:2:2 -> abp:2:4"
    assert [p["probe"] for p in report["probes"]] == ["0", "Z/2", "Z/4"]
    assert report["stages_consistent"] is True
    assert report["all_contractible"] is True


def test_gamma_check_passes(capsys):
    rc, out, _ = run(capsys, "gamma", "--check", "u-functoriality",
                     "--max-arity", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["checked"] > 0
    assert report["failures"] == []


def test_check_instance_verifies_the_squares(capsys):
    rc, out, _ = run(capsys, "check-instance", "--instance", "vect:2:2")
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["squares_checked"] == 71


@pytest.mark.parametrize("argv,needle", [
    (["k0", "--instance", "vect:2"], "descriptor"),
    (["homology", "--in", "fixtures/absent.sset"], "cannot read"),
    (["homology", "--in", BZ2], "sset file"),
    (["homology", "--in", RP2, "--depth", "0"], "at least 1"),
    (["devissage", "--source", "vect:2:2", "--target", "abp:2:4",
      "--probes", "0,c3", "--depth", "2"], "power of 2"),
    (["devissage", "--source", "vect:2:2", "--target", "abp:2:4",
      "--probes", "c8", "--depth", "2"], "outside the target bound"),
    (["devissage", "--source", "vect:3:2", "--target", "abp:2:4",
      "--probes", "0", "--depth", "2"], "characteristic"),
    (["gamma", "--check", "retraction-naturality", "--max-arity", "-1"],
     "max arity must be nonnegative"),
    (["pi1", "--in", RP2, "--budget", "-3"], "budget must be nonnegative"),
])
def test_malformed_input_exits_two(capsys, argv, needle):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert needle in err


def run_fresh(*argv, text=True, **env_vars):
    """Runs qcat in a fresh process with a timeout, so a command that
    loops or runs away fails its test instead of hanging the suite.
    `text=False` keeps stdout and stderr as bytes; `env_vars` are added
    to the child's environment."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "qcat", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=text, timeout=60)


def fresh_digests(lines) -> dict:
    """Exit code and stdout sha256 of each command line, each run in a
    fresh process with the hash seed the benchmark sets."""
    got = {}
    for line in lines:
        done = run_fresh(*line.split(), text=False, PYTHONHASHSEED="0")
        got[line] = {"exit": done.returncode,
                     "sha256": hashlib.sha256(done.stdout).hexdigest()}
    return got


def test_benchmark_commands_match_their_recorded_oracles():
    """The fixed benchmark commands still print byte-identical reports:
    exit code and stdout sha256 as recorded in perfbench/oracles.json."""
    oracles = json.loads((ROOT / "perfbench" / "oracles.json").read_text("utf-8"))
    assert len(oracles) == 11
    assert fresh_digests(oracles) == oracles


# Recorded like perfbench/oracles.json.  Their span categories have about
# 3,100 raw relators each, against 83 for the benchmark's abp:2:4.
K0_REPORTS = {
    "k0 --instance abp:3:9 --depth 2": {
        "exit": 0,
        "sha256": "628ada66acfdc4a2305592af3da692df"
                  "506a392a44361a0c1fe95521ca0b509a"},
    "k0 --instance vect:3:2 --depth 3": {
        "exit": 0,
        "sha256": "b47501e1225a12bf3f4f1c402052a01c"
                  "0e22d96858f7fad46e103575b9ceb1b4"},
}


def test_heavier_k0_reports_match_their_recorded_digests():
    assert fresh_digests(K0_REPORTS) == K0_REPORTS


# Recorded like K0_REPORTS, before the spine strings and the corner fillers
# were read off the span table.
SEGAL_REPORTS = {
    "segal --instance abp:3:9 --n 2": {
        "exit": 0,
        "sha256": "3e7a968d57888d467512a647daafccef"
                  "47f2634cd39f8a4d34b2bfcfbb018e10"},
    "segal --instance abp:2:4 --n 3": {
        "exit": 0,
        "sha256": "30642cb76e545d3321227dc9153f155f"
                  "aa6e76bfbd63fcb7548b3326c3ba90df"},
    "segal --instance vect:2:2 --n 3": {
        "exit": 0,
        "sha256": "23a7142a77725f6d5df90065d34044d8"
                  "5440eccce2f0c6574a7a59bdcf2ff087"},
}


def test_segal_reports_match_their_recorded_digests():
    assert fresh_digests(SEGAL_REPORTS) == SEGAL_REPORTS


def test_triple_verification_counts_the_maps_before_listing_any():
    # abp:2:32 would list 77,020,054 maps; the count alone is instant
    done = run_fresh("check-instance", "--instance", "abp:2:32")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == ("qcat check-instance: guard: triple verification: "
                           "77020054 maps, over the limit of 1000000\n")


@pytest.mark.parametrize("descriptor,limit,what", [
    ("vect:2:2", 70, "cospans"),     # 62 maps, 71 cospans
    ("abp:2:4", 97, "maps"),         # 98 maps, 82 cospans
])
def test_triple_verification_guard_reads_the_size_limit(monkeypatch, capsys,
                                                        descriptor, limit,
                                                        what):
    from qcat import exact

    argv = ("check-instance", "--instance", descriptor)
    monkeypatch.setattr(exact, "SIZE_LIMIT", limit)
    assert run(capsys, *argv) == (
        1, "", f"qcat check-instance: guard: triple verification: "
               f"{limit + 1} {what}, over the limit of {limit}\n")
    monkeypatch.setattr(exact, "SIZE_LIMIT", limit + 1)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("probe", ["c0", "c00"])
def test_zero_order_probe_exits_two(probe):
    done = run_fresh("devissage", "--source", "vect:2:2", "--target",
                     "abp:2:4", "--probes", probe, "--depth", "2")
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"{probe!r} is not a nontrivial power of 2" in done.stderr


@pytest.mark.parametrize("descriptor,count", [
    ("abp:2:8", 8831325), ("vect:2:3", 8823588)])
def test_segal_spine_guard_exits_one_before_building_strings(descriptor,
                                                            count):
    done = run_fresh("segal", "--instance", descriptor, "--n", "3")
    assert done.returncode == 1
    assert done.stdout == ""
    assert (f"segal spine: level 3 would hold {count} strings, "
            "over the limit of 1000000") in done.stderr


@pytest.mark.parametrize("argv,needle", [
    (["segal", "--instance", "vect:2:1", "--n", "4"], "bounded at n = 3"),
    (["devissage", "--source", "vect:2:2", "--target", "abp:2:4",
      "--probes", "0", "--depth", "5"], "bounded at 4"),
])
def test_guard_violations_exit_one(capsys, argv, needle):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert needle in err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "homology", "--in", RP2, "--depth", "1",
                     "--out", str(path))
    assert rc == 0
    assert path.read_text(encoding="utf-8") == out


def test_unwritable_out_path_exits_two_before_any_output(capsys, tmp_path):
    path = tmp_path / "missing" / "r.json"
    rc, out, err = run(capsys, "homology", "--in", RP2, "--out", str(path))
    assert rc == 2
    assert out == ""
    assert err == (f"qcat homology: error: cannot write report file "
                   f"{str(path)!r}: No such file or directory\n")
    assert not path.parent.exists()


def test_reports_are_byte_stable_across_runs_and_threads(capsys, monkeypatch):
    outs = []
    for threads in ["1", "4", "1"]:
        monkeypatch.setenv("QCAT_THREADS", threads)
        _, out, _ = run(capsys, "subdivide", "--word", "op", "--mmax", "2")
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
