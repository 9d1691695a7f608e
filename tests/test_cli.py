import subprocess
import sys

import pytest

from slat import conlat, corpus, descent
from slat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "join(a0(x),a1(x))")
    assert code == 0 and out == "top\n"
    code, out, _ = run(capsys, "eval", "join(0,a0(x))")
    assert code == 0 and out == "pair([x],[])\n"


def test_eval_domain_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "bowtie(a0(x),a0(x),1)")
    assert code == 2
    assert "not in C(S)" in err


def test_eval_syntax_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "join(a0(x)")
    assert code == 2
    assert "1:11" in err


def test_leq(capsys):
    code, out, _ = run(capsys, "leq", "bowtie(a0(x),a1(x),1)", "a0(x)")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "leq", "a0(x)", "a1(x)")
    assert code == 1 and out == "false\n"


def test_join_rank_supp(capsys):
    code, out, _ = run(capsys, "join", "a0(x)", "a0(y)")
    assert code == 0 and out == "pair([x,y],[])\n"
    code, out, _ = run(capsys, "rank", "a0(x)")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "rank", "bowtie(a0(x),a1(x),1)")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "supp", "bowtie(a0(x),a1(y),a0(x))")
    assert code == 0 and out == "x y\n"


def test_check_commands(capsys):
    code, out, _ = run(
        capsys, "check", "lemma44", "--alpha", "a", "--i", "0",
        "--x", "a0(x)", "--y", "a0(x)",
    )
    assert code == 0 and out == "holds\n"
    code, out, _ = run(
        capsys, "check", "lemma44", "--alpha", "a", "--i", "1",
        "--x", "1", "--y", "a0(x)",
    )
    assert code == 1 and out.startswith("premise-failed")
    code, out, _ = run(
        capsys, "check", "evaporation", "--alpha", "a", "--beta", "b",
        "--delta", "d", "--i", "0", "--j", "1",
        "--x", "0", "--y", "0", "--z", "0",
    )
    assert code == 0 and out == "holds\n"


@pytest.fixture
def n5_file(tmp_path):
    path = tmp_path / "n5.alg"
    path.write_text(conlat.format_algebra(corpus.n5()))
    return str(path)


def test_con_theta(capsys, n5_file):
    code, out, _ = run(capsys, "con", n5_file, "theta", "1", "2")
    assert code == 0 and out == "{{0},{1,2},{3},{4}}\n"


def test_con_conc(capsys, n5_file):
    code, out, _ = run(capsys, "con", n5_file, "conc")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conc size=5 zero=4"
    assert "theta 1 2 = c3" in lines


def test_con_erosion(capsys, tmp_path):
    path = tmp_path / "c3.alg"
    path.write_text(conlat.format_algebra(corpus.chain(3)))
    code, out, _ = run(capsys, "con", str(path), "erosion", "0", "0", "0", "1", "2")
    assert code == 0
    assert "u0 {{0,1},{2}}" in out
    assert "u1 {{0},{1,2}}" in out


def test_con_erosion_incompatible_join_exit_2(capsys, tmp_path):
    ch = corpus.chain(3)
    path = tmp_path / "bare3.alg"
    path.write_text(conlat.format_algebra(conlat.fin_algebra(3, [], ch.join)))
    for _ in range(2):
        code, out, err = run(capsys, "con", str(path), "erosion", "0", "0", "0", "1", "2")
        assert code == 2 and out == ""
        assert "congruence-compatible" in err


def test_con_empty_carrier_exit_2(capsys, tmp_path):
    path = tmp_path / "empty.alg"
    path.write_text("alg 0\njoin\n")
    for argv in (("conc",), ("theta", "0", "0")):
        code, out, err = run(capsys, "con", str(path), *argv)
        assert code == 2 and out == ""
        assert "at least one element" in err


def test_con_perm(capsys, tmp_path):
    path = tmp_path / "c4.alg"
    path.write_text(conlat.format_algebra(corpus.chain(4)))
    code, out, _ = run(capsys, "con", str(path), "perm", "1")
    assert code == 1 and out == "false\n"
    code, out, _ = run(capsys, "con", str(path), "perm", "15")
    assert code == 0 and out == "true\n"


def test_con_quotient(capsys, n5_file):
    code, out, _ = run(capsys, "con", n5_file, "quotient", "1", "2")
    assert code == 0
    assert out.startswith("alg 4\n")
    assert "proj 2 -> 1" in out


def test_con_wd(capsys, tmp_path):
    path = tmp_path / "c2.alg"
    path.write_text(conlat.format_algebra(corpus.chain(2)))
    m3 = corpus.m3()
    mu = tmp_path / "mu.sem"
    mu.write_text(
        "sem 5\njoin "
        + " ".join(str(t) for t in m3.join)
        + "\nzero 0\nmap 0 1\nmap 1 0\n"
    )
    code, out, _ = run(capsys, "con", str(path), "wd", str(mu))
    assert code == 1
    assert "wd at 0 false" in out
    assert "weakly_distributive false" in out


def test_freeset_files(capsys, tmp_path):
    nofree = tmp_path / "nofree.phi"
    nofree.write_text(
        "ground 0 1 2\narity 1\n"
        "phi {0} -> {1,2}\nphi {1} -> {0,2}\nphi {2} -> {0,1}\n"
    )
    code, out, _ = run(capsys, "freeset", str(nofree))
    assert code == 1 and out == "none\n"
    single = tmp_path / "single.phi"
    single.write_text(
        "ground 0 1 2\narity 1\nphi {0} -> {0}\nphi {1} -> {1}\nphi {2} -> {2}\n"
    )
    code, out, _ = run(capsys, "freeset", str(single))
    assert code == 0 and out == "free {0,1}\n"


def test_freeset_negative_arity_exit_2(capsys, tmp_path):
    path = tmp_path / "neg.phi"
    path.write_text("ground 0 1\narity -1\n")
    code, out, err = run(capsys, "freeset", str(path))
    assert code == 2 and out == ""
    assert "line 2" in err


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fix.dsc"
    path.write_text(descent.FIXTURE)
    return str(path)


def test_descent_commands(capsys, fixture_file):
    code, out, _ = run(capsys, "descent", fixture_file, "validate")
    assert code == 0
    assert all(line.startswith("ok ") for line in out.splitlines())
    code, out, _ = run(capsys, "descent", fixture_file, "er", "0", "0", "u", "-")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "descent", fixture_file, "p", "0", "0")
    assert code == 0 and out == "P(0,0) true instances=1\n"


def test_descent_mutated_validate(capsys, tmp_path):
    mutated = descent.MUTATIONS[0].apply(descent.FIXTURE)
    path = tmp_path / "bad.dsc"
    path.write_text(mutated)
    code, out, _ = run(capsys, "descent", str(path), "validate")
    assert code == 1
    assert any(line.startswith("fail ") for line in out.splitlines())


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "con", "/nonexistent/x.alg", "conc")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert main(["con"]) == 2
    assert main(["nosuchcommand"]) == 2


def test_suite_single(capsys):
    code, out, _ = run(
        capsys, "suite", "--only", "relations", "--cases", "20", "--seed", "3"
    )
    assert code == 0
    assert out == "suite relations cases=20 failures=0\nall-passed true\n"


def test_suite_cases_below_one_exit_2(capsys):
    for cases in ("0", "-3"):
        code, out, err = run(capsys, "suite", "--only", "relations", "--cases", cases)
        assert code == 2 and out == ""
        assert "--cases" in err


def test_suite_unknown_name(capsys):
    code, _, err = run(capsys, "suite", "--only", "nosuch")
    assert code == 2


def test_suite_corpus_dir(capsys, tmp_path):
    for name in ("chain3", "2x2"):
        L = dict(corpus.bundled_corpus())[name]
        (tmp_path / f"{name}.alg").write_text(conlat.format_algebra(L))
    code, out, _ = run(
        capsys, "suite", "--only", "funayama", "--corpus", str(tmp_path)
    )
    assert code == 0
    assert "lattices=2" in out


def test_descent_bad_args_exit_2(capsys, fixture_file):
    code, _, err = run(capsys, "descent", fixture_file, "er", "7", "0", "u", "-")
    assert code == 2
    code, _, err = run(capsys, "descent", fixture_file, "p", "9", "0")
    assert code == 2


def test_suite_deterministic_across_processes():
    cmd = [
        sys.executable, "-m", "slat.cli", "suite",
        "--seed", "11", "--cases", "25", "--only", "roundtrip",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("all-passed true\n")
