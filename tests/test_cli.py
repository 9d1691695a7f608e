import contextlib
import io
import random
import subprocess
import sys

import pytest

from slat import cli, conlat, corpus, descent, suite
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


def test_eval_too_deeply_nested_exit_2(capsys):
    code, out, err = run(capsys, "eval", "join(" * 3000 + "0" + ",0)" * 3000)
    assert (code, out, err) == (2, "", "error: input too deeply nested\n")


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


@pytest.mark.parametrize(
    "y, z, premises",
    [
        ("a0(a)", "0", "a occurs in y; y <= a_1^delta fails; y <= a_j^beta fails"),
        ("0", "a0(d)", "d occurs in z; z <= x v y fails"),
    ],
)
def test_check_evaporation_names_each_failed_premise(capsys, y, z, premises):
    code, out, _ = run(
        capsys, "check", "evaporation", "--alpha", "a", "--beta", "b",
        "--delta", "d", "--i", "0", "--j", "1", "--x", "0", "--y", y, "--z", z,
    )
    assert code == 1 and out == f"premise-failed: {premises}\n"


_EVAPORATION = ["--alpha", "a", "--beta", "b", "--delta", "d", "--i", "0", "--j", "1",
                "--x", "0", "--y", "0", "--z", "0"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lemma44", "--alpha", "", "--i", "0", "--x", "a0(x)", "--y", "a0(x)"], "--alpha"),
        (["lemma44", "--alpha", "x,y", "--i", "0", "--x", "a0(x)", "--y", "a0(x)"], "--alpha"),
        (["evaporation", *_EVAPORATION[:3], "b c", *_EVAPORATION[4:]], "--beta"),
        (["evaporation", *_EVAPORATION[:5], "a0(d)", *_EVAPORATION[6:]], "--delta"),
    ],
    ids=["empty", "comma", "space", "paren"],
)
def test_check_bad_generator_name_exit_2(capsys, argv, flag):
    # a generator name is one identifier, as an expression spells it
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == ""
    bad = argv[argv.index(flag) + 1]
    assert err.endswith(f"argument {flag}: generator name must be one identifier, got {bad!r}\n")
    assert "Traceback" not in err


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


def test_con_conc_refuses_more_than_a_million_congruences(capsys, tmp_path):
    # Con of an n-chain is Boolean with 2^(n-1) congruences.  chain(22)'s
    # listing of down-sets of J(Con L) stops as it passes 10^6, before any
    # partition is built.
    path = tmp_path / "chain.alg"
    path.write_text(conlat.format_algebra(corpus.chain(10)))
    code, out, _ = run(capsys, "con", str(path), "conc")
    assert code == 0 and out.splitlines()[0] == "conc size=512 zero=511"
    path.write_text(conlat.format_algebra(corpus.chain(22)))
    code, out, err = run(capsys, "con", str(path), "conc")
    assert (code, out) == (2, "")
    assert err == "error: Con A has at least 1048576 congruences, more than 1000000\n"


def test_readers_of_conc_refuse_a_table_past_the_limit(capsys, tmp_path, monkeypatch):
    # `wd` (given a map that covers all 256 congruences) and `suite --corpus`
    # build conc's table and exit 2 past its limit; `con FILE conc` reads
    # Con A alone and still prints it.
    monkeypatch.setattr(conlat, "CONC_TABLE_LIMIT", 255**2)
    path, mu = tmp_path / "chain9.alg", tmp_path / "mu.sem"
    path.write_text(conlat.format_algebra(corpus.chain(9)))
    mu.write_text("sem 1\njoin 0\nzero 0\n" + "".join(f"map {i} 0\n" for i in range(256)))
    message = "error: conc table has 65536 entries, more than 65025\n"
    wd = ("con", str(path), "wd", str(mu))
    for argv in (wd, ("suite", "--only", "funayama", "--corpus", str(tmp_path))):
        assert run(capsys, *argv) == (2, "", message), argv
    code, out, _ = run(capsys, "con", str(path), "conc")
    assert code == 0 and out.splitlines()[0] == "conc size=256 zero=255"


def test_wd_checks_the_map_file_before_building_conc(capsys, tmp_path, monkeypatch):
    # On chain(14) conc's table has 2^26 entries (seconds and about 600 MB);
    # a map file that is malformed or misses a domain index is refused from
    # |Con L| = 8192 alone.
    def no_conc(L):
        raise AssertionError("conc built before the map file was checked")

    monkeypatch.setattr(conlat, "conc", no_conc)
    path, mu = tmp_path / "chain14.alg", tmp_path / "mu.sem"
    path.write_text(conlat.format_algebra(corpus.chain(14)))
    for text, message in (
        ("sem 1\njoin 0\nzero 0\nmap 0 0\n", "map lines must cover domain indices 0..8191"),
        ("sem 2\njoin 0 1 1 1\nzero 1\nmap 0 0\n", "zero not neutral"),
        ("sem 1\njoin 0\nmap 0 0\n", "map file needs sem/join/zero lines"),
    ):
        mu.write_text(text)
        assert run(capsys, "con", str(path), "wd", str(mu)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [("theta", "5", "0"), ("quotient", "0", "7")])
def test_con_element_out_of_range_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "c3.alg"
    path.write_text(conlat.format_algebra(corpus.chain(3)))
    code, out, err = run(capsys, "con", str(path), *argv)
    assert (code, out, err) == (2, "", "error: elements must lie in 0..2\n")


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
    # Past the carrier size the verdict no longer depends on m.
    huge = run(capsys, "con", str(path), "perm", "1000000000")
    assert huge == run(capsys, "con", str(path), "perm", "4")


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    run(capsys, "rank", "0")
    run(capsys, "leq", "0", "0")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


_FIXTURE_LINES = descent.FIXTURE.splitlines()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("freeset",), "groundx 0 1\narity 1\n", "line 1: unknown directive 'groundx'"),
        (("freeset",), "ground 0 1\naritylol 1\n", "line 2: unknown directive 'aritylol'"),
        (("freeset",), "ground 0 1\narity 1 2\n", "line 2: arity takes 1 argument, got 2"),
        (("con", "conc"), "alg 2 7\njoin 0 1 1 1\n", "line 1: alg takes 1 argument, got 2"),
        (
            ("con", "conc"),
            "alg 2\njoin 0 1 1 1\ntop 1 9\n",
            "line 3: top takes 1 argument, got 2",
        ),
        (
            ("con", "conc"),
            "alg 2\nop j 2 0 1 1 1\nop j 2 0 0 0 1\njoin j\n",
            "line 3: operation 'j' defined twice",
        ),
        (
            # t and z lines first, so the broken op line is line 6 of the file
            ("descent", "validate"),
            "\n".join(_FIXTURE_LINES[5:10] + ["op meet 2 0 0 x"] + _FIXTURE_LINES[:1]
                      + _FIXTURE_LINES[2:5] + _FIXTURE_LINES[10:]),
            "line 6: invalid literal for int() with base 10: 'x'",
        ),
        (
            ("freeset",),
            "ground 0 1\narity 1\n# again\narity 2\n",
            "line 4: arity defined twice, first on line 2",
        ),
        (
            ("freeset",),
            "ground 0 1\nground 0 1 2\narity 1\n",
            "line 2: ground defined twice, first on line 1",
        ),
        (
            ("con", "conc"),
            "alg 3\nalg 2\njoin 0 1 1 1\n",
            "line 2: alg defined twice, first on line 1",
        ),
        (
            ("con", "conc"),
            "alg 2\njoin 0 1 1 1\ntop 1\ntop 0\n",
            "line 4: top defined twice, first on line 3",
        ),
        (
            ("con", "conc"),
            "alg 2\njoin 0 1 1 1\njoin 0 0 0 1\n",
            "line 3: join defined twice, first on line 2",
        ),
        (
            ("descent", "validate"),
            descent.FIXTURE + "U u\n",
            f"line {len(_FIXTURE_LINES) + 1}: U defined twice, first on line "
            f"{_FIXTURE_LINES.index('U u') + 1}",
        ),
        (
            ("descent", "validate"),
            descent.FIXTURE + "t 0 1\n",
            f"line {len(_FIXTURE_LINES) + 1}: t 0 defined twice",
        ),
        (
            ("descent", "validate"),
            descent.FIXTURE + "z 0 1 u 2\n",
            f"line {len(_FIXTURE_LINES) + 1}: z 0 1 u defined twice",
        ),
        (
            ("freeset",),
            "ground 0 1\narity 1\nphi {0} -> {1}\nphi {0} -> {0}\n",
            "line 4: phi {0} defined twice",
        ),
        (
            ("descent", "validate"),
            descent.FIXTURE.replace("U u\n", "U u u\n"),
            f"line {_FIXTURE_LINES.index('U u') + 1}: name 'u' listed twice",
        ),
        (("freeset",), "ground 0 0 1\narity 1\n", "line 1: name '0' listed twice"),
        (
            ("freeset",),
            "ground 0 1\narity 1\nphi {0,} -> {1}\n",
            "line 3: empty member in set '{0,}'",
        ),
        (
            # a z name no expression can spell, on every z line, and no U
            ("descent", "validate"),
            descent.FIXTURE.replace(" u ", " a(b ").replace("U u\n", ""),
            "line 7: generator name must be one identifier, got 'a(b'",
        ),
        (
            ("descent", "validate"),
            descent.FIXTURE.replace("z 0 2 u 3", "z 0 2 x,y 3"),
            "line 9: generator name must be one identifier, got 'x,y'",
        ),
        (
            ("con", "conc"),
            "alg 2\njoin 0 1 1 x\n",
            "line 2: invalid literal for int() with base 10: 'x'",
        ),
        (("con", "conc"), "alg 2\nop f 1 1 0\njoin f\n", "designated join must be binary"),
        (
            ("freeset",),
            "ground 0 1\narity 1\nphi {0,1} -> {1}\n",
            "phi {0,1}: argument must have 1 element",
        ),
        (
            ("freeset",),
            "ground 0 1 2\narity 2\nphi {0} -> {1}\n",
            "phi {0}: argument must have 2 elements",
        ),
        (
            ("freeset",),
            "ground 0 1\narity 1\nphi {0} -> {1,7}\n",
            "phi {0}: element 7 not in the ground set",
        ),
        (
            ("freeset",),
            "ground 0 1\narity 1\nphi {1} -> {0}\nphi {x} -> {0}\n",
            "phi {x}: element x not in the ground set",
        ),
        (
            ("freeset",),
            "ground 0 1\narity 1\nphi {0,0} -> {1}\n",
            "line 3: name '0' listed twice",
        ),
        (
            ("freeset",),
            "ground 0 1\narity 2\nphi {0,1} -> {1,1}\n",
            "line 3: name '1' listed twice",
        ),
        (
            # the chain 0 < 1 < 2 with its middle element declared the top
            ("con", "quotient", "0", "1"),
            "alg 3\njoin 0 1 2 1 1 2 2 2 2\ntop 1\n",
            "top 1 is not the greatest element",
        ),
    ],
)
def test_malformed_file_exit_2_names_its_line(capsys, tmp_path, argv, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_wd_map_repeated_line_exit_2(capsys, tmp_path):
    alg = tmp_path / "chain.alg"
    alg.write_text("alg 2\njoin 0 1 1 1\n")
    mu = tmp_path / "mu.map"
    mu.write_text("sem 2\njoin 0 1 1 1\nzero 0\nmap 0 1\nmap 0 0\nmap 1 0\n")
    code, out, err = run(capsys, "con", str(alg), "wd", str(mu))
    assert code == 2 and out == ""
    assert err == "error: line 5: map 0 defined twice\n"


def test_wd_map_image_out_of_range_exit_2(capsys, tmp_path):
    alg = tmp_path / "chain.alg"
    alg.write_text("alg 2\njoin 0 1 1 1\n")
    mu = tmp_path / "mu.map"
    mu.write_text("sem 2\njoin 0 1 1 1\nzero 0\nmap 0 0\nmap 1 5\n")
    code, out, err = run(capsys, "con", str(alg), "wd", str(mu))
    assert (code, out, err) == (2, "", "error: image entry out of range\n")


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


@pytest.mark.parametrize("command", [["validate"], ["er", "0", "0", "u", "-"], ["p", "0", "0"]])
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("t 0 0", "t 0 7", "t 0: element 7 not in 0..3"),
        ("t 0 0", "t 0 -2", "t 0: element -2 not in 0..3"),
        ("z 0 1 u 1", "z 0 1 u -1", "z 0 1 u: element -1 not in 0..3"),
        ("z 0 1 u 1", "z 0 1 u 9", "z 0 1 u: element 9 not in 0..3"),
        ("mu 0 3 1", "mu 0 9 1", "mu 0 9: element 9 not in 0..3"),
        ("mu 0 3 1", "mu -1 2 1", "mu -1 2: element -1 not in 0..3"),
        ("U u", "U u\nz 1 0 u 0", "z 1 0 u: row 1 not in 0..0"),
        ("U u", "U u\nz 0 -1 u 2", "z 0 -1 u: chain index -1 below 0"),
        (
            "z 0 1 u 1\n",
            "",
            "z 0 1 u: missing; each name needs a z line for every r in 0..0 and i in 0..2",
        ),
        (
            "U u",
            "U u\nz 0 0 v 0",
            "z 0 1 v: missing; each name needs a z line for every r in 0..0 and i in 0..2",
        ),
        (
            "U u",
            "U u\nz 0 4 u 3",
            "z 0 3 u: missing; each name needs a z line for every r in 0..0 and i in 0..4",
        ),
        ("U u", "U u v", "U mentions names outside the z lines"),
    ],
)
def test_descent_elements_outside_the_carrier_exit_2(capsys, tmp_path, command, old, new, message):
    # Each t, z and mu element must lie in 0..k-1, and each z row in
    # 0..m-1 with a chain index of at least 0: no IndexError, no
    # wrap-around through negative indexing, no silent pass.  With n the
    # largest chain index, every name has a z line for each r < m and
    # 0 <= i <= n; the first missing key, in (r, i, name) order, is named.
    assert descent.FIXTURE.count(old) == 1
    path = tmp_path / "bad.dsc"
    path.write_text(descent.FIXTURE.replace(old, new))
    code, out, err = run(capsys, "descent", str(path), *command)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("con", "{dir}", "conc"),
        ("con", "{alg}", "wd", "{dir}"),
        ("freeset", "{dir}"),
        ("descent", "{dir}", "validate"),
        ("suite", "--only", "funayama", "--corpus", "{corpus}"),
    ],
    ids=["con-conc", "con-wd", "freeset", "descent", "suite-corpus"],
)
def test_unreadable_path_exit_2(capsys, tmp_path, argv):
    # each path names a directory where the command reads a file
    alg = tmp_path / "L.alg"
    alg.write_text(conlat.format_algebra(corpus.chain(2)))
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / "x.alg").mkdir(parents=True)
    paths = {"dir": tmp_path, "alg": alg, "corpus": corpus_dir}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_suite_omega_size_and_max_rank_below_range_exit_2(capsys):
    for flag, value in (
        ("--omega-size", "0"), ("--omega-size", "-2"), ("--max-rank", "-1")
    ):
        code, out, err = run(capsys, "suite", "--only", "lub", flag, value)
        assert code == 2 and out == ""
        assert flag in err
    code, out, _ = run(capsys, "suite", "--only", "lub", "--cases", "5", "--max-rank", "0")
    assert code == 0 and out.endswith("all-passed true\n")


def test_suite_checks_every_minimum_omega_size_before_any_suite_runs(
    capsys, monkeypatch
):
    def not_run(cfg):
        raise AssertionError("relations ran before the omega-size check")

    monkeypatch.setitem(suite.SUITES, "relations", not_run)
    with pytest.raises(ValueError, match="evaporation suite needs omega-size >= 3"):
        suite.run_suites(suite.SuiteConfig(omega_size=2))
    code, out, err = run(capsys, "suite", "--omega-size", "2")
    assert code == 2 and out == ""
    assert "evaporation suite needs omega-size >= 3" in err
    code, out, err = run(capsys, "suite", "--only", "lemma44", "--omega-size", "1")
    assert code == 2 and out == ""
    assert "lemma44 suite needs omega-size >= 2" in err
    code, out, _ = run(
        capsys, "suite", "--only", "lub", "--cases", "5", "--omega-size", "2"
    )
    assert code == 0 and out.endswith("all-passed true\n")


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


def test_suite_empty_corpus_dir_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "suite", "--corpus", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: no .alg files in {tmp_path}\n"


@pytest.mark.parametrize(
    "names, message",
    [
        ("u,u", "name 'u' listed twice"),
        ("u, u", "name 'u' listed twice"),
        ("u,,u", "empty name in 'u,,u'"),
        ("u,", "empty name in 'u,'"),
        (",", "empty name in ','"),
        ("v", "name 'v' has no chain"),
        ("u,b,a", "name 'a' has no chain"),
    ],
)
def test_descent_er_name_sets_follow_the_file_rules(capsys, fixture_file, names, message):
    # as on a U line: each name once, no empty name, and only names that
    # have z lines
    for argv in (("er", "0", "0", names, "-"), ("er", "0", "0", "-", names)):
        code, out, err = run(capsys, "descent", fixture_file, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_descent_er_name_sets_ignore_spaces_around_names(capsys, fixture_file):
    # as in a free-set map's {a, b}
    code, out, _ = run(capsys, "descent", fixture_file, "er", "0", "0", " u", "-")
    assert code == 0 and out == "true\n"


def test_suite_corpus_error_names_the_file(capsys, tmp_path):
    (tmp_path / "a.alg").write_text(conlat.format_algebra(corpus.chain(2)))
    (tmp_path / "b.alg").write_text("alg 2\njoin 0 1 1 x\n")
    code, out, err = run(capsys, "suite", "--only", "funayama", "--corpus", str(tmp_path))
    assert code == 2 and out == ""
    assert err == "error: b.alg: line 2: invalid literal for int() with base 10: 'x'\n"


def test_descent_bad_args_exit_2(capsys, fixture_file):
    code, _, err = run(capsys, "descent", fixture_file, "er", "7", "0", "u", "-")
    assert code == 2
    code, _, err = run(capsys, "descent", fixture_file, "p", "9", "0")
    assert code == 2


def test_descent_p_refuses_too_many_instances(capsys, tmp_path):
    # 30 names with chain indices 0..5, so n = 5: P(4, 2) ranges over
    # C(30, 14) * C(16, 4) choices of (X, Y) for its one r, about 2.6e11.
    names = [f"u{i}" for i in range(30)]
    head = descent.FIXTURE.split("z 0 0")[0]
    zs = [f"z 0 {i} {u} {min(i, 3)}" for u in names for i in range(6)]
    path = tmp_path / "wide.dsc"
    path.write_text(head + "\n".join(zs) + "\nmu 0 0 0\n")
    code, out, err = run(capsys, "descent", str(path), "p", "4", "2")
    assert code == 2 and out == ""
    assert err == "error: P(4,2) has 264669268500 instances, more than 1000000\n"
    code, out, _ = run(capsys, "descent", str(path), "p", "0", "1")
    assert code == 0 and out == "P(0,1) true instances=435\n"


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


def mutated(text, rng, pool):
    """text after one to three seeded edits, each a dropped or duplicated
    line, a line of pool inserted, or two tokens swapped."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        if edit == 0 and lines:
            del lines[rng.randrange(len(lines))]
        elif edit == 1 and lines:
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
        elif edit == 2:
            lines.insert(rng.randint(0, len(lines)), rng.choice(pool))
        else:
            rows = [line.split() for line in lines]
            slots = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
            if len(slots) >= 2:
                (i, j), (k, m) = rng.sample(slots, 2)
                rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
                lines = [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def test_mutated_files_exit_0_1_or_2(tmp_path):
    # Every reader, and every command on what it accepts, must answer a
    # mutated file with an exit code and never let an exception escape.
    n5 = corpus.n5()
    S = conlat.conc(n5).table
    sem = f"sem {S.size}\njoin {' '.join(map(str, S.join))}\nzero {S.zero}\n"
    sem += "".join(f"map {x} {x}\n" for x in range(S.size))
    alg, bare = tmp_path / "L.alg", tmp_path / "bare.alg"
    mu, dsc, phi = tmp_path / "mu.sem", tmp_path / "D.dsc", tmp_path / "F.phi"
    sources = {
        alg: conlat.format_algebra(n5),
        bare: "alg 3\njoin 0 1 2 1 1 2 2 2 2\ntop 2\n",
        mu: sem,
        dsc: descent.FIXTURE,
        phi: "ground 0 1 2\narity 1\nphi {0} -> {1,2}\nphi {1} -> {0,2}\nphi {2} -> {0,1}\n",
    }
    con = ("conc", "theta 0 3", "erosion 0 1 0 1 4", "perm 2", "quotient 1 2", f"wd {mu}")
    commands = {
        alg: [f"con {alg} {c}" for c in con],
        bare: [f"con {bare} {c}" for c in ("conc", "erosion 0 1 0 1 2", "quotient 0 1")],
        mu: [f"con {alg} wd {mu}"],
        dsc: [f"descent {dsc} {c}" for c in ("validate", "er 0 0 u -", "p 0 0")],
        phi: [f"freeset {phi}"],
    }
    pool = [line for text in sources.values() for line in text.splitlines()]
    rng = random.Random("cli:mutated-files")
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for _ in range(150):
            for path, text in sources.items():
                path.write_text(mutated(text, rng, pool))
                for command in commands[path]:
                    code = main(command.split())
                    assert code in (0, 1, 2), (command, path.read_text())
                    codes[code] = codes.get(code, 0) + 1
                path.write_text(text)
    assert set(codes) == {0, 1, 2}, codes


# -- start-up ----------------------------------------------------------------
#
# The tests above run after other tests have imported every slat module, so
# they never see a command's first import; these start a fresh interpreter.


def slat_modules_after(code: str) -> list:
    """The slat modules a fresh interpreter has loaded once it has run code."""
    report = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'slat'), file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{report}"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


def test_library_import_leaves_descent_and_freeset_unloaded():
    # the modules bench/run.py imports
    loaded = slat_modules_after(
        "from slat import conlat, corpus, expr, freedist, freepairs, pairs, suite"
    )
    assert "slat.suite" in loaded
    assert "slat.descent" not in loaded and "slat.freeset" not in loaded


def test_eval_loads_only_the_expression_modules():
    loaded = slat_modules_after('from slat import cli\ncli.main(["eval", "join(a0(x),a1(x))"])')
    expression_modules = ["slat.expr", "slat.freedist", "slat.freepairs", "slat.pairs"]
    assert loaded == ["slat", "slat.cli", *expression_modules]


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("con", "{file}", "conc"), "alg 2\njoin 0 1 1\n", "join table needs 4 entries"),
        (("freeset", "{file}"), "ground 0 0\narity 1\n", "line 1: name '0' listed twice"),
        (("descent", "{file}", "validate"), "nonsense\n", "line 1: unknown directive 'nonsense'"),
        (
            ("suite", "--only", "funayama", "--corpus", "{dir}"),
            "alg 2\njoin 0 1 1\n",
            "bad.alg: join table needs 4 entries",
        ),
    ],
    ids=["con", "freeset", "descent", "suite-corpus"],
)
def test_first_use_of_each_lazily_imported_command_exits_2(tmp_path, argv, text, message):
    # each command imports its modules when it runs: a bad file given to a
    # fresh process must still give the one-line message, not a traceback
    (tmp_path / "bad.alg").write_text(text)
    paths = {"file": tmp_path / "bad.alg", "dir": tmp_path}
    cmd = [sys.executable, "-m", "slat.cli", *(arg.format(**paths) for arg in argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
