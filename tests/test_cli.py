import gc
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


def run_fresh(*argv, text=True, timeout=60, **env_vars):
    """Runs qcat in a fresh process with a timeout in seconds, so a
    command that loops or runs away fails its test instead of hanging the
    suite.  `text=False` keeps stdout and stderr as bytes; `env_vars` are
    added to the child's environment."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "qcat", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=text,
                          timeout=timeout)


def fresh_digests(lines, seed="0") -> dict:
    """Exit code and stdout sha256 of each command line, each run in a
    fresh process with hash seed `seed`, by default the one the benchmark
    sets."""
    got = {}
    for line in lines:
        done = run_fresh(*line.split(), text=False, PYTHONHASHSEED=seed)
        got[line] = {"exit": done.returncode,
                     "sha256": hashlib.sha256(done.stdout).hexdigest()}
    return got


def test_benchmark_commands_match_their_recorded_oracles():
    """The fixed benchmark commands still print byte-identical reports:
    exit code and stdout sha256 as recorded in perfbench/oracles.json."""
    oracles = json.loads((ROOT / "perfbench" / "oracles.json").read_text("utf-8"))
    assert len(oracles) == 11
    assert fresh_digests(oracles) == oracles


def test_benchmark_commands_print_the_same_under_another_hash_seed():
    """No report depends on the order of a set or a dict of hashed keys:
    under hash seed 1 the fixed benchmark commands print the digests
    recorded under seed 0."""
    oracles = json.loads((ROOT / "perfbench" / "oracles.json").read_text("utf-8"))
    assert fresh_digests(oracles, seed="1") == oracles


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


# Recorded like K0_REPORTS, before span classes were stored as partial-map
# tables: the heaviest Segal check and the heavier devissage certificate.
SPAN_REPORTS = {
    "segal --instance abp:2:8 --n 2": {
        "exit": 0,
        "sha256": "be6f039733fb4d0741ce61a76295370d"
                  "a4650e2d61b14e57c76d1ea7b33a380f"},
    "devissage --source vect:2:2 --target abp:2:8 --probes c2+c2,c4 "
    "--depth 3": {
        "exit": 0,
        "sha256": "dadf009e2429aa99df8324fb80dacb20"
                  "69bd8e40bd6f7ce8fa47d5769b54d1ed"},
}


def test_heavier_span_reports_match_their_recorded_digests():
    assert fresh_digests(SPAN_REPORTS) == SPAN_REPORTS


# Recorded like K0_REPORTS, before the gamma checks compared cut tables:
# 1,008,762 and 658,532 comparisons, the heaviest gamma reports.
GAMMA_REPORTS = {
    "gamma --check u-functoriality --max-arity 5": {
        "exit": 0,
        "sha256": "dd05da7dff90857eb890a8c37b86f10c"
                  "947564543f0c464b0794b371f958ce38"},
    "gamma --check retraction-naturality --max-arity 3": {
        "exit": 0,
        "sha256": "e35df6c5d2d48f7534d92fab9e64ef46"
                  "04bf1e371d38115644f006481231d447"},
}


def test_heavy_gamma_reports_match_their_recorded_digests():
    assert fresh_digests(GAMMA_REPORTS) == GAMMA_REPORTS


@pytest.mark.parametrize("check,arity,over,count", [
    ("u-functoriality", 6, 6, 14157241),
    ("retraction-naturality", 4, 4, 24024702),
    ("u-functoriality", 10 ** 6, 6, 14157241),
    ("retraction-naturality", 10 ** 6, 4, 24024702)])
def test_gamma_checks_count_their_comparisons_before_listing_any_map(
        check, arity, over, count):
    # about 18 s and 34 s of comparisons at the first arity over the limit;
    # the counts are closed forms, taken arity by arity up to that one
    done = run_fresh("gamma", "--check", check, "--max-arity", str(arity))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (f"qcat gamma: guard: {check}: {count} comparisons "
                           f"through arity {over}, over the limit of "
                           f"10000000\n")


def test_triple_verification_counts_the_maps_before_listing_any():
    # abp:2:32 would list 77,020,054 maps; the count alone is instant
    done = run_fresh("check-instance", "--instance", "abp:2:32")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == ("qcat check-instance: guard: triple verification: "
                           "77020054 maps, over the limit of 1000000\n")


def test_triple_verification_counts_the_element_applications_first():
    # vect:100003:1 passes the map guard with 200,012 maps; the count
    # bounds the element reads of the verification's image and fiber tables
    done = run_fresh("check-instance", "--instance", "vect:100003:1")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == ("qcat check-instance: guard: triple verification: "
                           "20001400028 element applications, over the limit "
                           "of 10000000\n")


def test_triple_verification_counts_the_cospans_after_listing_the_maps():
    # abp:3:27 passes both count guards, so its 23,509 maps are listed and
    # sorted into monos and epis before the cospans are counted
    done = run_fresh("check-instance", "--instance", "abp:3:27", timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == ("qcat check-instance: guard: triple verification: "
                           "133531567 cospans, over the limit of 1000000\n")


@pytest.mark.parametrize("descriptor", ["abp:2147483647:1",
                                        "vect:2147483647:0"])
def test_a_large_prime_is_accepted_in_a_fresh_process(descriptor):
    # 2^31 - 1 is prime; trial division past its square root would take
    # minutes, which the subprocess timeout turns into a failure
    done = run_fresh("check-instance", "--instance", descriptor)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["passed"]


@pytest.mark.parametrize("descriptor,limit,what", [
    ("vect:2:2", 70, "cospans"),     # 62 maps, 71 cospans
    ("abp:2:4", 97, "maps"),         # 98 maps, 82 cospans
])
def test_triple_verification_guard_reads_the_size_limit(monkeypatch, capsys,
                                                        descriptor, limit,
                                                        what):
    from qcat import errors

    argv = ("check-instance", "--instance", descriptor)
    monkeypatch.setattr(errors, "SIZE_LIMIT", limit)
    assert run(capsys, *argv) == (
        1, "", f"qcat check-instance: guard: triple verification: "
               f"{limit + 1} {what}, over the limit of {limit}\n")
    monkeypatch.setattr(errors, "SIZE_LIMIT", limit + 1)
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
    assert done.stderr == (f"qcat segal: guard: segal spine: {count} strings "
                           "at level 3, over the limit of 1000000\n")


@pytest.mark.parametrize("argv,needle", [
    (["segal", "--instance", "vect:2:1", "--n", "4"], "over the limit of 3"),
    (["devissage", "--source", "vect:2:2", "--target", "abp:2:4",
      "--probes", "0", "--depth", "5"], "over the limit of 4"),
    (["segal", "--instance", "vect:2:1", "--n", "4"],
     "ambigressive enumeration: 4 spine spans"),
    (["devissage", "--source", "vect:2:2", "--target", "abp:2:4",
      "--probes", "0", "--depth", "5"], "comma nerve: 5 levels"),
], ids=["argv0-bounded at n = 3", "argv1-bounded at 4",
        "argv2-n = 4 requested", "argv3-depth 5 requested"])
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


# Runs qcat/__main__.py as `python -m qcat` does, then reports on stderr,
# after the command's own lines, whether the start-up heap was frozen.
FREEZE_PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0,
                              file=sys.stderr))
runpy.run_module("qcat", run_name="__main__", alter_sys=True)
"""


def test_process_entry_freezes_the_start_up_heap(capsys):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, "homology", "--in", RP2],
        cwd=ROOT, env=env, capture_output=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr.decode().splitlines()[-1] == "frozen True"
    # the in-process entry freezes nothing and prints the same bytes
    frozen = gc.get_freeze_count()
    rc, out, _ = run(capsys, "homology", "--in", RP2)
    assert rc == 0
    assert gc.get_freeze_count() == frozen
    assert done.stdout == out.encode()


def test_console_script_uses_the_process_entry():
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    assert 'qcat = "qcat.__main__:run"' in text
